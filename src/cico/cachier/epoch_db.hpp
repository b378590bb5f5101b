// Epoch database: the first, dynamic phase of Cachier (section 4).
//
// "Trace processing consists of removing addresses involved in shared
//  write faults from the list of shared read misses, updating the list of
//  shared write misses to include addresses involved in shared write
//  faults, and storing labelling information contained in the trace."
//
// EpochDB ingests a Fig. 3 trace and produces, per (epoch, node):
//   SW  -- shared-write block set  (write misses + write faults)
//   SR  -- shared-read block set   (read misses - write-faulted blocks)
//   WF  -- write-fault block set   (blocks read before being written;
//          the only candidates for Performance-CICO check_out_X)
//   S   -- SW + SR
// Word-level access sets are kept too, since data races are defined on
// addresses while false sharing is defined on blocks.
#pragma once

#include <unordered_map>
#include <vector>

#include "cico/common/types.hpp"
#include "cico/kern/bitset.hpp"
#include "cico/kern/nodemask.hpp"
#include "cico/mem/geometry.hpp"
#include "cico/trace/trace.hpp"

namespace cico::cachier {

// Dense bitsets (cico::kern): same membership API as the historical
// unordered_set aliases, but iteration is ascending and set algebra
// (|=, &=, -=) works a 64-bit word at a time.
using BlockSet = kern::BlockSet;
using WordSet = kern::BlockSet;

struct NodeEpochData {
  WordSet read_words;   ///< word addresses of shared read misses
  WordSet write_words;  ///< word addresses of shared write misses
  WordSet fault_words;  ///< word addresses of shared write faults
  BlockSet SW;          ///< shared-write blocks (see file comment)
  BlockSet SR;          ///< shared-read blocks
  BlockSet WF;          ///< write-fault (read-then-write) blocks
  BlockSet S;           ///< SW + SR

  [[nodiscard]] bool empty() const { return S.empty(); }
};

class EpochDB {
 public:
  EpochDB(const trace::Trace& t, const mem::CacheGeometry& g);

  [[nodiscard]] EpochId epochs() const { return epochs_; }
  [[nodiscard]] std::uint32_t nodes() const { return nodes_; }
  [[nodiscard]] const mem::CacheGeometry& geometry() const { return geo_; }

  /// Data for (epoch, node); a shared empty record when out of range.
  [[nodiscard]] const NodeEpochData& at(EpochId e, NodeId n) const;

  /// Union of SW over all nodes for an epoch (used by the Performance-CICO
  /// check-in rule: "will be written by SOME processor in the next epoch").
  [[nodiscard]] const BlockSet& epoch_sw_union(EpochId e) const;

  /// Mask of the nodes that touch block b in epoch e (empty when nobody
  /// does).  Dynamic width: nodes >= 64 get distinct bits instead of
  /// aliasing onto n % 64 as the old uint64_t mask did.
  [[nodiscard]] const kern::NodeMask& users_of(EpochId e, Block b) const;

  /// True when node n is the ONLY node touching block b in epoch e.
  [[nodiscard]] bool sole_user(EpochId e, Block b, NodeId n) const {
    return users_of(e, b).is_sole(n);
  }

 private:
  mem::CacheGeometry geo_;
  EpochId epochs_ = 0;
  std::uint32_t nodes_ = 0;
  // data_[e * nodes_ + n]
  std::vector<NodeEpochData> data_;
  std::vector<BlockSet> sw_union_;
  std::vector<std::unordered_map<Block, kern::NodeMask>> users_;
  NodeEpochData empty_;
  BlockSet empty_blocks_;
  kern::NodeMask empty_mask_;
};

}  // namespace cico::cachier

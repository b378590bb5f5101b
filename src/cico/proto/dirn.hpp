// DirN full-map hardware directory (DASH / Alewife style baseline).
//
// Every block's full sharer bit-vector lives in directory hardware, so
// EVERY request -- including writes to widely shared blocks and reads of
// remote exclusive copies -- is serviced without software intervention:
// invalidations fan out in parallel (latency = one round trip + small
// per-sharer serialization at the directory), and dirty copies are
// forwarded.  There are no traps, so CICO check-ins can only save the
// (much smaller) hardware invalidation/forwarding costs.
// `bench_protocol_sensitivity` quantifies exactly that.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cico/common/cost.hpp"
#include "cico/common/stats.hpp"
#include "cico/net/network.hpp"
#include "cico/proto/dir1sw.hpp"
#include "cico/proto/protocol.hpp"

namespace cico::proto {

class DirNFullMap final : public Protocol {
 public:
  DirNFullMap(std::uint32_t nodes, const CostModel& cost, net::Network& net,
              Stats& stats, CacheControl& caches);

  [[nodiscard]] NodeId home_of(Block b) const override {
    return static_cast<NodeId>(b % nodes_);
  }

  ServiceResult get_shared(NodeId req, Block b, Cycle now,
                           bool prefetch) override;
  ServiceResult get_exclusive(NodeId req, Block b, Cycle now,
                              bool prefetch) override;
  ServiceResult put(NodeId req, Block b, bool dirty, Cycle now,
                    bool explicit_ci) override;
  ServiceResult post_store(NodeId req, Block b, Cycle now) override;

  [[nodiscard]] std::string check_invariants() const override;
  /// Memoized audit over the blocks ent() touched since the last clean one
  /// (this protocol always runs serially, so a single dirty set suffices).
  [[nodiscard]] std::string check_invariants_incremental() override;
  [[nodiscard]] const char* name() const override { return "dirn-fullmap"; }

  [[nodiscard]] const DirEntry* entry(Block b) const;

 private:
  DirEntry& ent(Block b) {
    dirty_.insert(b);
    return dir_[b];
  }
  /// One block's share of check_invariants.
  void check_block(Block b, const DirEntry& e, std::ostringstream& bad) const;
  /// Hardware fan-out invalidation: parallel sends, one ack-collect RTT
  /// plus a small per-sharer directory occupancy.
  Cycle invalidate_sharers_hw(DirEntry& e, Block b, NodeId home, NodeId keep,
                              std::uint32_t* sent);

  std::uint32_t nodes_;
  CostModel cost_;
  net::Network* net_;
  Stats* stats_;
  CacheControl* caches_;
  std::unordered_map<Block, DirEntry> dir_;
  /// Blocks touched through ent() since the last clean incremental audit.
  kern::BlockSet dirty_;
};

}  // namespace cico::proto

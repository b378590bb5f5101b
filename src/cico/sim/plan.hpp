// Directive plan: the runtime form of Cachier's output for programs
// written against the C++ runtime API.
//
// For MiniPar programs Cachier rewrites the source (cico::srcann); for
// compiled programs it produces this plan, which the simulator applies
// automatically -- the moral equivalent of binary rewriting.  A plan maps
// (node, epoch) to:
//   * directives to issue when the epoch begins (check-outs / prefetches,
//     placed "as close to the beginning of the epoch as possible", 4.2),
//   * directives to issue when the epoch ends (check-ins),
//   * blocks whose first read should fetch EXCLUSIVE (the Performance-CICO
//     check_out_X placed immediately before a read-then-write, 4.1), and
//   * blocks to check in immediately after every access (DRFS blocks --
//     involved in data races or false sharing -- which another processor
//     will claim quickly, 4.1).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cico/common/types.hpp"
#include "cico/kern/bitset.hpp"

namespace cico::sim {

enum class DirectiveKind : std::uint8_t {
  CheckOutX,
  CheckOutS,
  CheckIn,
  PrefetchX,
  PrefetchS,
};

[[nodiscard]] const char* directive_kind_name(DirectiveKind k);

/// Inclusive run of absolute block numbers.
struct BlockRun {
  Block first = 0;
  Block last = 0;

  [[nodiscard]] std::uint64_t count() const { return last - first + 1; }
  friend bool operator==(const BlockRun&, const BlockRun&) = default;
};

struct PlannedDirective {
  DirectiveKind kind;
  BlockRun run;
  friend bool operator==(const PlannedDirective&, const PlannedDirective&) = default;
};

/// Everything the runtime must do for one (node, epoch).  The block sets
/// are dense bitsets (cico::kern): the simulator probes them on every
/// shared access, and plan application iterates them in ascending block
/// order.
struct NodeEpochDirectives {
  std::vector<PlannedDirective> at_start;
  std::vector<PlannedDirective> at_end;
  kern::BlockSet fetch_exclusive;
  /// Check in after ANY access (read-side DRFS blocks).
  kern::BlockSet checkin_after_access;
  /// Check in after a WRITE only: for racy read-modify-write blocks the
  /// check-in goes after the update, exactly like the section 4.4 listing
  /// (check_out_X C[i,j]; C[i,j] = ...; check_in C[i,j]).
  kern::BlockSet checkin_after_write;

  [[nodiscard]] bool empty() const {
    return at_start.empty() && at_end.empty() && fetch_exclusive.empty() &&
           checkin_after_access.empty() && checkin_after_write.empty();
  }
};

class DirectivePlan {
 public:
  /// Mutable entry, created on demand (used by the plan builder and by
  /// hand-annotation code in the apps).
  NodeEpochDirectives& at(NodeId node, EpochId epoch) {
    return map_[key(node, epoch)];
  }

  /// Lookup; nullptr when the (node, epoch) has no directives.
  [[nodiscard]] const NodeEpochDirectives* find(NodeId node, EpochId epoch) const {
    auto it = map_.find(key(node, epoch));
    return it == map_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] bool empty() const { return map_.empty(); }
  [[nodiscard]] std::size_t entries() const { return map_.size(); }

  /// Visits every (node, epoch) entry (unspecified order).
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [key, d] : map_) {
      fn(static_cast<NodeId>(key >> 32), static_cast<EpochId>(key), d);
    }
  }

  /// Total count of planned directives (for reports / tests).
  [[nodiscard]] std::uint64_t total_directives() const;

  /// Human-readable summary.
  [[nodiscard]] std::string summary() const;

 private:
  static std::uint64_t key(NodeId node, EpochId epoch) {
    return (static_cast<std::uint64_t>(node) << 32) | epoch;
  }
  std::unordered_map<std::uint64_t, NodeEpochDirectives> map_;
};

}  // namespace cico::sim

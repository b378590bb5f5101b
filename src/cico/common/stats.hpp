// Per-node event counters.
//
// Counters are written on the hot path by the owning node's fiber (cache
// hits) and by the boundary phase while every fiber is parked (misses,
// protocol events).  All of it runs on the one host thread that drives the
// Machine, so no synchronization is required.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "cico/common/types.hpp"

namespace cico {

/// Every event class the simulator counts.  Keep in sync with stat_name().
enum class Stat : std::uint32_t {
  SharedLoads,       ///< shared-data loads issued (hits + misses)
  SharedStores,      ///< shared-data stores issued
  ReadMisses,        ///< shared read misses (GetS sent)
  WriteMisses,       ///< shared write misses (GetX sent, block not cached)
  WriteFaults,       ///< stores to a Shared copy (upgrade requests)
  Traps,             ///< Dir1SW software traps
  Invalidations,     ///< invalidation messages sent by the software handler
  Recalls,           ///< exclusive-copy recalls by the software handler
  Messages,          ///< total network messages
  Writebacks,        ///< dirty blocks written back to memory
  Evictions,         ///< capacity/conflict evictions
  CheckOutX,         ///< explicit check_out_X directives issued
  CheckOutS,         ///< explicit check_out_S directives issued
  CheckIns,          ///< explicit check_in directives issued
  PrefetchIssued,    ///< prefetch_X/prefetch_S directives issued
  PrefetchUseful,    ///< prefetched block later hit before eviction
  PrefetchLate,      ///< access arrived before prefetch completed (partial)
  PrefetchDropped,   ///< prefetch would have trapped; protocol dropped it
  Barriers,          ///< barrier episodes completed (per node)
  LockAcquires,      ///< lock acquisitions
  LockContended,     ///< lock acquisitions that had to queue
  StallCycles,       ///< cycles spent waiting on the memory system
  DirectiveCycles,   ///< cycles spent issuing directives
  ComputeCycles,     ///< cycles charged via Proc::compute (private work)
  PostStores,        ///< post_store directives issued (extension)
  MsgDropped,        ///< messages dropped by the fault injector
  MsgDuplicated,     ///< messages duplicated by the fault injector
  Retries,           ///< protocol requests re-issued after a drop/loss
  PrefetchThrottled, ///< prefetches suppressed by the self-throttle
  WatchdogTrips,     ///< liveness-watchdog livelock detections
  BoundaryRounds,    ///< boundary-phase service rounds executed (node 0)
  // Per-directive attribution (report schema v2).  The *Cycles counters
  // partition DirectiveCycles: check_out_x_cycles + check_out_s_cycles +
  // check_in_cycles + post_store_cycles == directive_cycles.  Prefetch
  // issue cost is charged to the node clock but not to DirectiveCycles
  // (prefetches are asynchronous), so its cycles live only here.
  CheckOutXCycles,   ///< cycles attributed to check_out_X issues + waits
  CheckOutSCycles,   ///< cycles attributed to check_out_S issues + waits
  CheckInCycles,     ///< cycles attributed to check_in issues
  PostStoreCycles,   ///< cycles attributed to post_store issues
  PrefetchX,         ///< prefetch_X directives issued (subset of PrefetchIssued)
  PrefetchS,         ///< prefetch_S directives issued (subset of PrefetchIssued)
  PrefetchXCycles,   ///< issue cycles attributed to prefetch_X
  PrefetchSCycles,   ///< issue cycles attributed to prefetch_S
  Count_
};

inline constexpr std::size_t kStatCount = static_cast<std::size_t>(Stat::Count_);

/// Human-readable name for a counter (used by reports and benches).
[[nodiscard]] std::string_view stat_name(Stat s);

/// Fixed-size per-node counter table.
class Stats {
 public:
  explicit Stats(std::size_t nodes) : per_node_(nodes) {}

  void add(NodeId n, Stat s, std::uint64_t v = 1) {
    per_node_[n][static_cast<std::size_t>(s)] += v;
  }

  [[nodiscard]] std::uint64_t node(NodeId n, Stat s) const {
    return per_node_[n][static_cast<std::size_t>(s)];
  }

  /// Sum of a counter over all nodes.
  [[nodiscard]] std::uint64_t total(Stat s) const {
    std::uint64_t t = 0;
    for (const auto& row : per_node_) t += row[static_cast<std::size_t>(s)];
    return t;
  }

  [[nodiscard]] std::size_t nodes() const { return per_node_.size(); }

  void reset() {
    for (auto& row : per_node_) row.fill(0);
  }

 private:
  struct Row : std::array<std::uint64_t, kStatCount> {
    Row() { fill(0); }
  };
  std::vector<Row> per_node_;
};

}  // namespace cico

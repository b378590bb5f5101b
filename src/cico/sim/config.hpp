// Top-level simulator configuration.  Paper defaults (section 6): 32
// nodes, 256 KB 4-way caches with 32-byte blocks, Dir1SW protocol.
#pragma once

#include "cico/common/cost.hpp"
#include "cico/common/types.hpp"
#include "cico/fault/fault.hpp"
#include "cico/mem/geometry.hpp"

namespace cico::sim {

enum class ProtocolKind : std::uint8_t {
  Dir1SW,      ///< the paper's protocol: HW pointer+counter, software traps
  DirNFullMap, ///< all-hardware full-map baseline (DASH/Alewife style)
};

struct SimConfig {
  std::uint32_t nodes = 32;
  ProtocolKind protocol = ProtocolKind::Dir1SW;
  mem::CacheGeometry cache{};
  CostModel cost{};

  /// Conservative-window quantum (cycles).  WWT synchronised targets every
  /// network-latency quantum; we default to the two-hop miss latency.
  Cycle quantum = 120;

  /// Trace mode: record every miss and flush all shared-data caches at
  /// each barrier (section 3.3 -- improves trace quality since only misses
  /// appear in the trace).  Leave off for measurement runs.
  bool trace_mode = false;

  /// Base address of the simulated shared heap.
  Addr heap_base = 0x1000;

  /// Fault-injection spec (--faults).  The default spec injects nothing
  /// and leaves every fast path untouched.
  fault::FaultSpec faults{};

  /// Paranoid mode (--paranoid): run the protocol's check_invariants() at
  /// every epoch boundary and abort with InvariantViolation on the first
  /// directory/cache divergence.
  bool audit_invariants = false;

  /// Memoize paranoid audits (--no-audit-memo disables): per-epoch audits
  /// recheck only blocks whose directory entries were touched since the
  /// last clean audit; the end-of-run audit always does the full walk as
  /// a backstop.  Pure performance knob -- detected violations and all
  /// deterministic output are identical either way.
  bool audit_memo = true;

  /// Liveness watchdog: abort with SimDeadlock after this many consecutive
  /// boundary rounds with zero virtual-time progress (0 disables it --
  /// a 100% drop rate then livelocks, so leave it on).
  std::uint32_t watchdog_rounds = 32;
};

}  // namespace cico::sim

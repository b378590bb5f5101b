// Deterministic fault injection for the Dir1SW memory system.
//
// The interconnect model is an idealized lossless wire; the protocol and
// simulator above it are therefore never exercised against message loss,
// duplication, delay, or a slow software handler.  This subsystem makes
// those failure modes injectable, *deterministically*: a FaultSpec carries
// the probabilities and a seed, a FaultInjector draws from one SplitMix64
// stream, and because every network/protocol interaction happens in the
// simulator's deterministic boundary phase, the same spec always yields
// the same faults, the same retries, and bit-identical statistics.
//
// Spec grammar (comma-separated key=value; see docs/fault_injection.md):
//
//   drop=0.01            drop probability per droppable message
//   dup=0.005            duplication probability per message
//   delay=0.02:40        delay probability : delay cycles
//   stall=0.001:200      software-handler stall probability : cycles
//   seed=7               RNG seed (default 1)
//   retries=8            retry budget for dropped/lost requests (0 = unbounded)
//   backoff=120:4096     exponential backoff base : cap, in cycles
//                        (base 0 = derive from the cost model's miss latency)
//   throttle=4           prefetch engine self-throttles for the rest of the
//                        epoch after this many consecutive failed prefetches
//                        (0 = never throttle)
//   drop.recall=0.05     per-MsgType override (also dup.<type>, delay.<type>)
//
// All probabilities default to zero: a default FaultSpec injects nothing
// and the hooks below compile to branch-on-null checks.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "cico/common/rng.hpp"
#include "cico/common/types.hpp"
#include "cico/net/msg.hpp"

namespace cico::fault {

/// A probability paired with a cycle count (delay and stall faults).
struct RateSpec {
  double prob = 0.0;
  Cycle cycles = 0;
};

struct FaultSpec {
  // Global rates.
  double drop = 0.0;
  double dup = 0.0;
  RateSpec delay{};
  RateSpec stall{};

  // Per-MsgType overrides; a negative probability means "inherit global".
  std::array<double, net::kMsgTypeCount> drop_by{};
  std::array<double, net::kMsgTypeCount> dup_by{};
  std::array<RateSpec, net::kMsgTypeCount> delay_by{};

  std::uint64_t seed = 1;
  std::uint32_t max_retries = 8;  ///< 0 = unbounded (watchdog guards liveness)
  Cycle backoff_base = 0;         ///< 0 = derive from cost model
  Cycle backoff_cap = 4096;
  std::uint32_t throttle_after = 0;  ///< 0 = prefetch throttling off

  FaultSpec() {
    drop_by.fill(-1.0);
    dup_by.fill(-1.0);
    for (auto& r : delay_by) r.prob = -1.0;
  }

  /// True when any fault can actually be injected (some probability > 0).
  [[nodiscard]] bool injects() const;

  [[nodiscard]] double drop_prob(net::MsgType t) const {
    const double o = drop_by[static_cast<std::size_t>(t)];
    return o < 0.0 ? drop : o;
  }
  [[nodiscard]] double dup_prob(net::MsgType t) const {
    const double o = dup_by[static_cast<std::size_t>(t)];
    return o < 0.0 ? dup : o;
  }
  [[nodiscard]] RateSpec delay_rate(net::MsgType t) const {
    const RateSpec& o = delay_by[static_cast<std::size_t>(t)];
    return o.prob < 0.0 ? delay : o;
  }

  /// Parses the grammar above.  Throws std::invalid_argument with the
  /// offending token on malformed input.
  [[nodiscard]] static FaultSpec parse(std::string_view text);

  /// Canonical textual form (parse(to_string()) round-trips).
  [[nodiscard]] std::string to_string() const;
};

/// Draws fault decisions deterministically, in one of two modes.
///
/// Sequential (default): one SplitMix64 stream, draws consumed in call
/// order.  Reproducible because every network/protocol interaction happens
/// in the single-threaded boundary phase.
///
/// Keyed (set_keyed(true), used by sim::Machine): every verdict is a
/// stateless hash of (seed, message identity: type, leg, endpoints, send
/// time, block tag), so the draw is independent of the order in which
/// messages are serviced.  Retries are re-keyed by their later send time,
/// so drop=1.0 still exhausts budgets.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec)
      : spec_(spec), rng_(spec.seed) {}

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] bool injects() const { return spec_.injects(); }

  void set_keyed(bool on) { keyed_ = on; }
  [[nodiscard]] bool keyed() const { return keyed_; }

  /// Per-message verdict.  `droppable` is false for message legs the model
  /// treats as reliable (interior handler traffic, prefetch replies).
  struct Fate {
    bool dropped = false;
    bool duplicated = false;
    Cycle delay = 0;
  };
  [[nodiscard]] Fate fate(net::MsgType t, bool droppable);

  /// Verdict for a message with a known identity; uses the keyed draw in
  /// keyed mode and falls back to the sequential stream otherwise.
  [[nodiscard]] Fate fate_at(net::MsgType t, bool droppable, NodeId from,
                             NodeId to, Cycle now, Block tag);

  /// Stall to add to one software-handler invocation (usually 0).
  [[nodiscard]] Cycle handler_stall();

  /// Stall for a handler invocation with a known identity (block serviced,
  /// requesting node, request arrival time); keyed-mode aware like fate_at.
  [[nodiscard]] Cycle handler_stall_at(Block b, NodeId req, Cycle now);

  // --- telemetry (for soak reports) ---------------------------------------
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t dups() const { return dups_; }
  [[nodiscard]] std::uint64_t delays() const { return delays_; }
  [[nodiscard]] std::uint64_t stalls() const { return stalls_; }
  [[nodiscard]] std::uint64_t drops_of(net::MsgType t) const {
    return drops_by_[static_cast<std::size_t>(t)];
  }

 private:
  /// Uniform in [0,1) from the message identity (stateless).
  [[nodiscard]] double keyed_uniform(std::uint64_t salt, std::uint64_t a,
                                     std::uint64_t b, std::uint64_t c,
                                     std::uint64_t d, std::uint64_t e) const;

  FaultSpec spec_;
  Rng rng_;
  bool keyed_ = false;
  std::uint64_t drops_ = 0;
  std::uint64_t dups_ = 0;
  std::uint64_t delays_ = 0;
  std::uint64_t stalls_ = 0;
  std::array<std::uint64_t, net::kMsgTypeCount> drops_by_{};
};

}  // namespace cico::fault

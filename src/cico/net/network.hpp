// Interconnect model.
//
// The CM-5's fat-tree is modelled as a uniform-latency network (the CICO
// cost model does the same: every remote hop costs the same).  The network
// charges latencies and counts messages by type; the Dir1SW protocol layers
// its transactions on top of these primitives.
//
// A FaultInjector may be attached (sim layer, --faults): droppable legs go
// through deliver(), which can lose, duplicate or delay a message; send()
// models legs the protocol treats as reliable (interior handler traffic)
// and applies duplication/delay only.  With no injector attached both
// paths reduce to the original lossless wire, bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "cico/common/cost.hpp"
#include "cico/common/stats.hpp"
#include "cico/common/types.hpp"
#include "cico/fault/fault.hpp"
#include "cico/net/msg.hpp"

namespace cico::net {

/// Uniform-latency interconnect with per-type message accounting.
class Network {
 public:
  Network(const CostModel& cost, Stats& stats) : cost_(cost), stats_(&stats) {}

  /// Attach (or detach, with nullptr) a fault injector.  The injector is
  /// owned by the caller and must outlive the network.
  void set_fault_injector(fault::FaultInjector* f) { inj_ = f; }
  [[nodiscard]] fault::FaultInjector* fault_injector() const { return inj_; }

  /// One-way message latency.  Messages between a node and itself (the home
  /// directory slice is co-located) are free of network latency but still
  /// counted when they represent real protocol traffic.
  [[nodiscard]] Cycle latency(NodeId from, NodeId to) const {
    return from == to ? 0 : cost_.net_hop;
  }

  /// Sends a message at time `now`; returns its arrival time and counts it
  /// against the sending node.  This leg is modelled as reliable: faults
  /// may duplicate or delay it but never lose it.  `tag` identifies the
  /// subject of the message (the block, for protocol traffic) and feeds the
  /// injector's keyed draw; latency and accounting ignore it.
  Cycle send(NodeId from, NodeId to, MsgType t, Cycle now, Block tag = 0) {
    count(from, t);
    Cycle l = latency(from, to);
    if (inj_ != nullptr) {
      const auto f = inj_->fate_at(t, /*droppable=*/false, from, to, now, tag);
      if (f.duplicated) note_duplicate(from, t);
      l += f.delay;
    }
    return now + l;
  }

  /// Outcome of one droppable message leg.
  struct Delivery {
    Cycle at = 0;
    bool dropped = false;
  };

  /// Sends a droppable message.  Counted against the sender either way
  /// (the wire carried it; the fault ate it).
  Delivery deliver(NodeId from, NodeId to, MsgType t, Cycle now,
                   Block tag = 0) {
    count(from, t);
    if (inj_ == nullptr) return {now + latency(from, to), false};
    const auto f = inj_->fate_at(t, /*droppable=*/true, from, to, now, tag);
    if (f.dropped) {
      stats_->add(from, Stat::MsgDropped);
      return {now + latency(from, to), true};
    }
    if (f.duplicated) note_duplicate(from, t);
    return {now + latency(from, to) + f.delay, false};
  }

  /// Counts a message without computing a latency (for asynchronous
  /// traffic whose latency is off the critical path, e.g. eviction hints).
  void count(NodeId from, MsgType t) {
    stats_->add(from, Stat::Messages);
    by_type_[static_cast<std::size_t>(t)] += 1;
  }

  [[nodiscard]] std::uint64_t sent(MsgType t) const {
    return by_type_[static_cast<std::size_t>(t)];
  }

  [[nodiscard]] std::uint64_t total_sent() const {
    std::uint64_t n = 0;
    for (auto v : by_type_) n += v;
    return n;
  }

 private:
  void note_duplicate(NodeId from, MsgType t) {
    // The duplicate is real traffic: counted as a message of its type.
    count(from, t);
    stats_->add(from, Stat::MsgDuplicated);
  }

  CostModel cost_;
  Stats* stats_;
  fault::FaultInjector* inj_ = nullptr;
  std::array<std::uint64_t, kMsgTypeCount> by_type_{};
};

}  // namespace cico::net

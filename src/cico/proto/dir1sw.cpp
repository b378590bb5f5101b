#include "cico/proto/dir1sw.hpp"

#include <algorithm>
#include <sstream>

namespace cico::proto {

using mem::LineState;
using net::MsgType;

namespace {

/// A lost request or reply is detected by the requester's timeout: two
/// hardware miss latencies after issue.  done_at carries the detection
/// time so the retry layer can schedule the re-issue.
ServiceResult dropped_result(Cycle now, const CostModel& cost) {
  return {.done_at = now + 2 * cost.hw_miss_latency(), .dropped = true};
}

/// The hardware counter tracks the size of the software's sharer set.
void recount(DirEntry& e) {
  e.count = static_cast<std::uint32_t>(e.sharers.count());
}

}  // namespace

Dir1SW::Dir1SW(std::uint32_t nodes, const CostModel& cost, net::Network& net,
               Stats& stats, CacheControl& caches)
    : nodes_(nodes), cost_(cost), net_(&net), stats_(&stats), caches_(&caches),
      dirty_(nodes) {}

const DirEntry* Dir1SW::entry(Block b) const {
  auto it = entries_.find(b);
  return it == entries_.end() ? nullptr : &it->second;
}

ServiceResult Dir1SW::reply(ServiceResult r, NodeId req, Block b, MsgType msg,
                            Cycle at, Cycle now, bool prefetch) {
  const NodeId home = home_of(b);
  if (prefetch) {
    r.done_at = net_->send(home, req, MsgType::PrefetchReply, at, b);
    return r;
  }
  const auto rp = net_->deliver(home, req, msg, at, b);
  if (rp.dropped) return dropped_result(now, cost_);
  r.done_at = rp.at;
  return r;
}

ServiceResult Dir1SW::nack(NodeId home, Cycle done_at) {
  net_->count(home, MsgType::Nack);
  return {.done_at = done_at, .nacked = true};
}

ServiceResult Dir1SW::nack_put(NodeId req, NodeId home, MsgType msg,
                               Cycle done_at) {
  net_->count(req, msg);
  return nack(home, done_at);
}

Cycle Dir1SW::trap(ServiceResult& r, NodeId home, Block b, NodeId req,
                   Cycle at) {
  stats_->add(home, Stat::Traps);
  r.trapped = true;
  // An injected stall is keyed by the block, requester and arrival time.
  fault::FaultInjector* f = net_->fault_injector();
  const Cycle stall = f == nullptr ? 0 : f->handler_stall_at(b, req, at);
  return at + cost_.dir_trap + stall;
}

Cycle Dir1SW::recall_owner(DirEntry& e, Block b, NodeId home, Cycle t,
                           bool keep_copy) {
  stats_->add(home, Stat::Recalls);
  t = net_->send(home, e.owner, MsgType::Recall, t, b);
  if (keep_copy) {
    caches_->downgrade(e.owner, b);
  } else {
    caches_->invalidate(e.owner, b);
    e.past_sharers.set(e.owner);
  }
  t = net_->send(e.owner, home, MsgType::Writeback, t, b);
  stats_->add(e.owner, Stat::Writebacks);
  return t + cost_.mem_access;
}

std::pair<Cycle, std::uint32_t> Dir1SW::invalidate_sharers(DirEntry& e, Block b,
                                                           NodeId home,
                                                           NodeId keep) {
  Cycle occupancy = 0;
  Cycle last_rtt = 0;
  std::uint32_t sent = 0;
  for (const NodeId s : e.sharers) {
    if (s == keep) continue;
    net_->count(home, MsgType::Invalidate);
    net_->count(s, MsgType::Ack);
    caches_->invalidate(s, b);
    e.past_sharers.set(s);
    occupancy += cost_.inval_per_sharer;
    last_rtt = net_->latency(home, s) + net_->latency(s, home);
    ++sent;
    stats_->add(home, Stat::Invalidations);
  }
  return {occupancy + last_rtt, sent};
}

ServiceResult Dir1SW::get_shared(NodeId req, Block b, Cycle now, bool prefetch) {
  DirEntry& e = ent(b);
  if (e.state == DirState::Exclusive && e.owner == req) {
    // Requester already owns the block exclusively; idempotent reply.
    return {.done_at = now + cost_.hit};
  }
  const NodeId home = home_of(b);
  const auto rq = net_->deliver(
      req, home, prefetch ? MsgType::PrefetchReq : MsgType::Request, now, b);
  if (rq.dropped) return dropped_result(now, cost_);
  ServiceResult r;
  Cycle t = rq.at;
  if (e.state != DirState::Exclusive) {
    // Hardware path: fill (Idle) or counter increment (Shared).
    t += cost_.dir_hw + cost_.mem_access;
    if (e.state == DirState::Idle) e.owner = req;
  } else if (prefetch) {
    return nack(home, now);
  } else {
    // TRAP: recall the exclusive copy, downgrade the owner to Shared.
    t = recall_owner(e, b, home, trap(r, home, b, req, t), /*keep_copy=*/true);
    e.sharers.set(e.owner);
  }
  e.state = DirState::Shared;
  e.sharers.set(req);
  recount(e);
  return reply(r, req, b, MsgType::DataReply, t, now, prefetch);
}

ServiceResult Dir1SW::get_exclusive(NodeId req, Block b, Cycle now,
                                    bool prefetch) {
  DirEntry& e = ent(b);
  if (e.state == DirState::Exclusive && e.owner == req) {
    return {.done_at = now + cost_.hit};
  }
  const NodeId home = home_of(b);
  const auto rq = net_->deliver(
      req, home, prefetch ? MsgType::PrefetchReq : MsgType::Request, now, b);
  if (rq.dropped) return dropped_result(now, cost_);
  ServiceResult r;
  Cycle t = rq.at;
  MsgType msg = MsgType::DataReply;
  if (e.state == DirState::Idle) {
    t += cost_.dir_hw + cost_.mem_access;
  } else if (e.state == DirState::Shared && e.sharers.is_sole(req)) {
    // Hardware upgrade: counter==1 and the pointer names the requester,
    // so no invalidations are needed and no data moves.
    t += cost_.dir_hw;
    msg = MsgType::Ack;
  } else if (prefetch) {
    return nack(home, now);
  } else if (e.state == DirState::Shared) {
    // TRAP: software invalidates every other sharer.
    const bool req_had_copy = e.has_sharer(req);
    t = trap(r, home, b, req, t);
    const auto [inval_cycles, sent] = invalidate_sharers(e, b, home, req);
    t += inval_cycles;
    r.invalidations = sent;
    if (req_had_copy) {
      msg = MsgType::Ack;
    } else {
      t += cost_.mem_access;
    }
  } else {
    // TRAP: recall and invalidate the current owner.
    t = recall_owner(e, b, home, trap(r, home, b, req, t),
                     /*keep_copy=*/false);
    r.invalidations = 1;
  }
  // The requester becomes the exclusive owner.
  e.state = DirState::Exclusive;
  e.owner = req;
  e.sharers.clear();
  e.count = 0;
  return reply(r, req, b, msg, t, now, prefetch);
}

ServiceResult Dir1SW::put(NodeId req, Block b, bool dirty, Cycle now,
                          bool explicit_ci) {
  DirEntry& e = ent(b);
  const NodeId home = home_of(b);
  const MsgType msg = explicit_ci ? MsgType::Directive : MsgType::Writeback;
  // Check-ins are fire-and-forget: the requester pays issue occupancy only.
  const Cycle done_at = now + (explicit_ci ? cost_.directive_issue : 0);
  const bool owner = e.state == DirState::Exclusive;
  const bool holds = owner ? e.owner == req
                           : e.state == DirState::Shared && e.has_sharer(req);
  if (!holds) return nack_put(req, home, msg, done_at);
  // A lost check-in must not touch the directory: the block stays
  // checked out until the retransmit lands (retry layer in the sim).
  const auto d = net_->deliver(
      req, home, owner && dirty ? MsgType::Writeback : msg, now, b);
  if (d.dropped) return dropped_result(now, cost_);
  if (owner && dirty) stats_->add(req, Stat::Writebacks);
  // An exclusive owner is the only holder (its sharer set is empty).
  e.sharers.reset(req);
  e.past_sharers.set(req);
  recount(e);
  if (e.sharers.any()) {
    e.owner = e.sharers.lowest();
  } else {
    e.state = DirState::Idle;
    e.owner = kInvalidNode;
  }
  return {.done_at = done_at};
}

ServiceResult Dir1SW::post_store(NodeId req, Block b, Cycle now) {
  DirEntry& e = ent(b);
  const NodeId home = home_of(b);
  const Cycle done_at = now + cost_.directive_issue;
  if (e.state != DirState::Exclusive || e.owner != req) {
    // Only a current exclusive owner can post-store; otherwise ignore
    // (directives never affect semantics).
    return nack_put(req, home, MsgType::Directive, done_at);
  }
  // Write back and downgrade the writer to Shared.
  const auto d = net_->deliver(req, home, MsgType::Writeback, now, b);
  if (d.dropped) return dropped_result(now, cost_);
  stats_->add(req, Stat::Writebacks);
  caches_->downgrade(req, b);
  e.state = DirState::Shared;
  e.sharers.clear();
  e.sharers.set(req);
  // Push read-only copies to every past sharer (off the critical path;
  // messages counted, occupancy charged at the home).
  for (const NodeId n : e.past_sharers) {
    if (n == req) continue;
    net_->count(home, MsgType::DataReply);
    caches_->push_shared(n, b);
    e.sharers.set(n);
  }
  recount(e);
  e.owner = req;
  return {.done_at = done_at};
}

void Dir1SW::check_block(Block b, const DirEntry& e,
                         std::ostringstream& bad) const {
  const auto set_size = static_cast<std::uint32_t>(e.sharers.count());
  if (e.count != set_size &&
      !(e.state == DirState::Exclusive || e.state == DirState::Idle)) {
    bad << "block " << b << ": counter " << e.count << " != sharer set size "
        << set_size << "\n";
  }
  switch (e.state) {
    case DirState::Idle:
      if (e.sharers.any())
        bad << "block " << b << ": Idle with sharers\n";
      for (NodeId n = 0; n < nodes_; ++n) {
        if (caches_->peek(n, b) != LineState::Invalid)
          bad << "block " << b << ": Idle but cached at node " << n << "\n";
      }
      break;
    case DirState::Shared:
      if (!e.sharers.any())
        bad << "block " << b << ": Shared with empty sharer set\n";
      for (NodeId n = 0; n < nodes_; ++n) {
        const LineState ls = caches_->peek(n, b);
        const bool should = e.has_sharer(n);
        if (should && ls != LineState::Shared)
          bad << "block " << b << ": sharer " << n << " not Shared in cache\n";
        if (!should && ls != LineState::Invalid)
          bad << "block " << b << ": non-sharer " << n << " holds copy\n";
        if (ls == LineState::Exclusive)
          bad << "block " << b << ": Exclusive copy under Shared entry\n";
      }
      break;
    case DirState::Exclusive:
      for (NodeId n = 0; n < nodes_; ++n) {
        const LineState ls = caches_->peek(n, b);
        if (n == e.owner && ls != LineState::Exclusive)
          bad << "block " << b << ": owner " << n << " lost exclusive copy\n";
        if (n != e.owner && ls != LineState::Invalid)
          bad << "block " << b << ": node " << n
              << " holds copy under foreign Exclusive entry\n";
      }
      break;
  }
}

std::string Dir1SW::check_invariants() const {
  std::ostringstream bad;
  // Walk homes in ascending order and blocks ascending within each home
  // so diagnostics come out in a stable order regardless of hash-map
  // layout.
  std::vector<std::pair<NodeId, Block>> blocks;
  blocks.reserve(entries_.size());
  for (const auto& [b, unused] : entries_) blocks.emplace_back(home_of(b), b);
  std::sort(blocks.begin(), blocks.end());
  for (const auto& [h, b] : blocks) check_block(b, entries_.at(b), bad);
  return bad.str();
}

std::string Dir1SW::check_invariants_incremental() {
  std::ostringstream bad;
  // Same home-ascending, block-ascending order as the full walk; BlockSet
  // iteration is already ascending, so no sort is needed.
  for (NodeId h = 0; h < nodes_; ++h) {
    for (const Block b : dirty_[h]) {
      // ent() marks conservatively; a dirty block with no entry was only
      // ever read through a const path and is equivalent to Idle.
      auto it = entries_.find(b);
      if (it != entries_.end()) check_block(b, it->second, bad);
    }
  }
  std::string diag = bad.str();
  if (diag.empty()) {
    for (auto& d : dirty_) d.clear();
  }
  return diag;
}

}  // namespace cico::proto

#include "cico/proto/dir1sw.hpp"

#include <algorithm>
#include <sstream>

namespace cico::proto {

using mem::LineState;
using net::MsgType;

bool DirEntry::has_sharer(NodeId n) const {
  return std::binary_search(sharers.begin(), sharers.end(), n);
}

bool DirEntry::has_past_sharer(NodeId n) const {
  return std::binary_search(past_sharers.begin(), past_sharers.end(), n);
}

namespace {

void add_sharer(DirEntry& e, NodeId n) {
  auto it = std::lower_bound(e.sharers.begin(), e.sharers.end(), n);
  if (it == e.sharers.end() || *it != n) {
    e.sharers.insert(it, n);
    e.count = static_cast<std::uint32_t>(e.sharers.size());
  }
}

void add_past_sharer(DirEntry& e, NodeId n) {
  auto it = std::lower_bound(e.past_sharers.begin(), e.past_sharers.end(), n);
  if (it == e.past_sharers.end() || *it != n) e.past_sharers.insert(it, n);
}

void remove_sharer(DirEntry& e, NodeId n) {
  auto it = std::lower_bound(e.sharers.begin(), e.sharers.end(), n);
  if (it != e.sharers.end() && *it == n) {
    e.sharers.erase(it);
    e.count = static_cast<std::uint32_t>(e.sharers.size());
    add_past_sharer(e, n);
  }
}

/// A lost request or reply is detected by the requester's timeout: two
/// hardware miss latencies after issue.  done_at carries the detection
/// time so the retry layer can schedule the re-issue.
ServiceResult dropped_result(Cycle now, const CostModel& cost) {
  ServiceResult r;
  r.dropped = true;
  r.done_at = now + 2 * cost.hw_miss_latency();
  return r;
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

Cycle Dir1SW::handler_stall(Block b, NodeId req, Cycle at) {
  fault::FaultInjector* f = net_->fault_injector();
  return f == nullptr ? 0 : f->handler_stall_at(b, req, at);
}

std::pair<Cycle, std::uint32_t> Dir1SW::invalidate_sharers(DirEntry& e, Block b,
                                                           NodeId home,
                                                           NodeId keep) {
  Cycle occupancy = 0;
  Cycle last_rtt = 0;
  std::uint32_t sent = 0;
  // Copy: invalidate() does not change the sharer list, but be defensive.
  std::vector<NodeId> targets = e.sharers;
  for (NodeId s : targets) {
    if (s == keep) continue;
    net_->count(home, MsgType::Invalidate);
    net_->count(s, MsgType::Ack);
    caches_->invalidate(s, b);
    remove_sharer(e, s);
    occupancy += cost_.inval_per_sharer;
    last_rtt = net_->latency(home, s) + net_->latency(s, home);
    ++sent;
    stats_->add(home, Stat::Invalidations);
  }
  return {occupancy + last_rtt, sent};
}

ServiceResult Dir1SW::get_shared(NodeId req, Block b, Cycle now, bool prefetch) {
  DirEntry& e = ent(b);
  const NodeId home = home_of(b);
  const MsgType req_msg = prefetch ? MsgType::PrefetchReq : MsgType::Request;
  const MsgType rep_msg = prefetch ? MsgType::PrefetchReply : MsgType::DataReply;
  ServiceResult r;

  switch (e.state) {
    case DirState::Idle:
    case DirState::Shared: {
      // Hardware path: fill (Idle) or counter increment (Shared).
      const auto rq = net_->deliver(req, home, req_msg, now, b);
      if (rq.dropped) return dropped_result(now, cost_);
      Cycle t = rq.at + cost_.dir_hw + cost_.mem_access;
      if (e.state == DirState::Idle) e.owner = req;
      e.state = DirState::Shared;
      if (prefetch) {
        // Prefetches are never retried, so their reply leg is modelled
        // reliable: a lost prefetch is a lost *request* (state untouched).
        t = net_->send(home, req, rep_msg, t, b);
        add_sharer(e, req);
        r.done_at = t;
        return r;
      }
      const auto rp = net_->deliver(home, req, rep_msg, t, b);
      add_sharer(e, req);
      if (rp.dropped) return dropped_result(now, cost_);
      r.done_at = rp.at;
      return r;
    }
    case DirState::Exclusive: {
      if (e.owner == req) {
        // Requester already owns the block exclusively; idempotent reply.
        r.done_at = now + cost_.hit;
        return r;
      }
      if (prefetch) {
        const auto rq = net_->deliver(req, home, MsgType::PrefetchReq, now, b);
        if (rq.dropped) return dropped_result(now, cost_);
        net_->count(home, MsgType::Nack);
        r.nacked = true;
        r.done_at = now;
        return r;
      }
      const auto rq = net_->deliver(req, home, MsgType::Request, now, b);
      if (rq.dropped) return dropped_result(now, cost_);
      // TRAP: recall the exclusive copy, downgrade the owner to Shared.
      stats_->add(home, Stat::Traps);
      stats_->add(home, Stat::Recalls);
      r.trapped = true;
      Cycle t = rq.at + cost_.dir_trap + handler_stall(b, req, rq.at);
      t = net_->send(home, e.owner, MsgType::Recall, t, b);
      caches_->downgrade(e.owner, b);
      t = net_->send(e.owner, home, MsgType::Writeback, t, b);
      stats_->add(e.owner, Stat::Writebacks);
      t += cost_.mem_access;
      const auto rp = net_->deliver(home, req, MsgType::DataReply, t, b);
      e.state = DirState::Shared;
      add_sharer(e, e.owner);
      add_sharer(e, req);
      if (rp.dropped) return dropped_result(now, cost_);
      r.done_at = rp.at;
      return r;
    }
  }
  r.done_at = now;
  return r;
}

ServiceResult Dir1SW::get_exclusive(NodeId req, Block b, Cycle now,
                                    bool prefetch) {
  DirEntry& e = ent(b);
  const NodeId home = home_of(b);
  const MsgType req_msg = prefetch ? MsgType::PrefetchReq : MsgType::Request;
  const MsgType rep_msg = prefetch ? MsgType::PrefetchReply : MsgType::DataReply;
  ServiceResult r;

  switch (e.state) {
    case DirState::Idle: {
      const auto rq = net_->deliver(req, home, req_msg, now, b);
      if (rq.dropped) return dropped_result(now, cost_);
      Cycle t = rq.at + cost_.dir_hw + cost_.mem_access;
      if (prefetch) {
        t = net_->send(home, req, rep_msg, t, b);
        e.state = DirState::Exclusive;
        e.owner = req;
        e.sharers.clear();
        e.count = 0;
        r.done_at = t;
        return r;
      }
      const auto rp = net_->deliver(home, req, rep_msg, t, b);
      e.state = DirState::Exclusive;
      e.owner = req;
      e.sharers.clear();
      e.count = 0;
      if (rp.dropped) return dropped_result(now, cost_);
      r.done_at = rp.at;
      return r;
    }
    case DirState::Shared: {
      const bool sole = e.sharers.size() == 1 && e.has_sharer(req);
      if (sole) {
        // Hardware upgrade: counter==1 and the pointer names the requester,
        // so no invalidations are needed and no data moves.
        const auto rq = net_->deliver(req, home, req_msg, now, b);
        if (rq.dropped) return dropped_result(now, cost_);
        Cycle t = rq.at + cost_.dir_hw;
        if (prefetch) {
          t = net_->send(home, req, MsgType::PrefetchReply, t, b);
          e.state = DirState::Exclusive;
          e.owner = req;
          e.sharers.clear();
          e.count = 0;
          r.done_at = t;
          return r;
        }
        const auto rp = net_->deliver(home, req, MsgType::Ack, t, b);
        e.state = DirState::Exclusive;
        e.owner = req;
        e.sharers.clear();
        e.count = 0;
        if (rp.dropped) return dropped_result(now, cost_);
        r.done_at = rp.at;
        return r;
      }
      if (prefetch) {
        const auto rq = net_->deliver(req, home, MsgType::PrefetchReq, now, b);
        if (rq.dropped) return dropped_result(now, cost_);
        net_->count(home, MsgType::Nack);
        r.nacked = true;
        r.done_at = now;
        return r;
      }
      const auto rq = net_->deliver(req, home, MsgType::Request, now, b);
      if (rq.dropped) return dropped_result(now, cost_);
      // TRAP: software invalidates every other sharer.
      stats_->add(home, Stat::Traps);
      r.trapped = true;
      const bool req_had_copy = e.has_sharer(req);
      Cycle t = rq.at + cost_.dir_trap + handler_stall(b, req, rq.at);
      auto [inval_cycles, sent] = invalidate_sharers(e, b, home, req);
      t += inval_cycles;
      r.invalidations = sent;
      if (!req_had_copy) t += cost_.mem_access;
      const auto rp = net_->deliver(
          home, req, req_had_copy ? MsgType::Ack : MsgType::DataReply, t, b);
      e.state = DirState::Exclusive;
      e.owner = req;
      e.sharers.clear();
      e.count = 0;
      if (rp.dropped) return dropped_result(now, cost_);
      r.done_at = rp.at;
      return r;
    }
    case DirState::Exclusive: {
      if (e.owner == req) {
        r.done_at = now + cost_.hit;
        return r;
      }
      if (prefetch) {
        const auto rq = net_->deliver(req, home, MsgType::PrefetchReq, now, b);
        if (rq.dropped) return dropped_result(now, cost_);
        net_->count(home, MsgType::Nack);
        r.nacked = true;
        r.done_at = now;
        return r;
      }
      const auto rq = net_->deliver(req, home, MsgType::Request, now, b);
      if (rq.dropped) return dropped_result(now, cost_);
      // TRAP: recall and invalidate the current owner.
      stats_->add(home, Stat::Traps);
      stats_->add(home, Stat::Recalls);
      r.trapped = true;
      Cycle t = rq.at + cost_.dir_trap + handler_stall(b, req, rq.at);
      t = net_->send(home, e.owner, MsgType::Recall, t, b);
      caches_->invalidate(e.owner, b);
      add_past_sharer(e, e.owner);
      t = net_->send(e.owner, home, MsgType::Writeback, t, b);
      stats_->add(e.owner, Stat::Writebacks);
      t += cost_.mem_access;
      const auto rp = net_->deliver(home, req, MsgType::DataReply, t, b);
      r.invalidations = 1;
      e.owner = req;
      e.sharers.clear();
      e.count = 0;
      if (rp.dropped) return dropped_result(now, cost_);
      r.done_at = rp.at;
      return r;
    }
  }
  r.done_at = now;
  return r;
}

ServiceResult Dir1SW::put(NodeId req, Block b, bool dirty, Cycle now,
                          bool explicit_ci) {
  DirEntry& e = ent(b);
  const NodeId home = home_of(b);
  const MsgType msg = explicit_ci ? MsgType::Directive : MsgType::Writeback;
  ServiceResult r;
  // Check-ins are fire-and-forget: the requester pays issue occupancy only.
  r.done_at = now + (explicit_ci ? cost_.directive_issue : 0);

  switch (e.state) {
    case DirState::Idle: {
      net_->count(req, msg);
      net_->count(home, MsgType::Nack);
      r.nacked = true;
      return r;
    }
    case DirState::Shared: {
      if (!e.has_sharer(req)) {
        net_->count(req, msg);
        net_->count(home, MsgType::Nack);
        r.nacked = true;
        return r;
      }
      // A lost check-in must not touch the directory: the block stays
      // checked out until the retransmit lands (retry layer in the sim).
      const auto d = net_->deliver(req, home, msg, now, b);
      if (d.dropped) return dropped_result(now, cost_);
      remove_sharer(e, req);
      if (e.sharers.empty()) {
        e.state = DirState::Idle;
        e.owner = kInvalidNode;
      } else {
        e.owner = e.sharers.front();
      }
      return r;
    }
    case DirState::Exclusive: {
      if (e.owner != req) {
        net_->count(req, msg);
        net_->count(home, MsgType::Nack);
        r.nacked = true;
        return r;
      }
      const auto d =
          net_->deliver(req, home, dirty ? MsgType::Writeback : msg, now, b);
      if (d.dropped) return dropped_result(now, cost_);
      if (dirty) stats_->add(req, Stat::Writebacks);
      add_past_sharer(e, req);
      e.state = DirState::Idle;
      e.owner = kInvalidNode;
      e.sharers.clear();
      e.count = 0;
      return r;
    }
  }
  return r;
}

ServiceResult Dir1SW::post_store(NodeId req, Block b, Cycle now) {
  DirEntry& e = ent(b);
  const NodeId home = home_of(b);
  ServiceResult r;
  r.done_at = now + cost_.directive_issue;
  if (e.state != DirState::Exclusive || e.owner != req) {
    // Only a current exclusive owner can post-store; otherwise ignore
    // (directives never affect semantics).
    net_->count(req, net::MsgType::Directive);
    net_->count(home, net::MsgType::Nack);
    r.nacked = true;
    return r;
  }
  // Write back and downgrade the writer to Shared.
  const auto d = net_->deliver(req, home, net::MsgType::Writeback, now, b);
  if (d.dropped) return dropped_result(now, cost_);
  stats_->add(req, Stat::Writebacks);
  caches_->downgrade(req, b);
  e.state = DirState::Shared;
  e.sharers.clear();
  add_sharer(e, req);
  // Push read-only copies to every past sharer (off the critical path;
  // messages counted, occupancy charged at the home).
  const std::vector<NodeId> targets = e.past_sharers;
  for (NodeId n : targets) {
    if (n == req) continue;
    net_->count(home, net::MsgType::DataReply);
    caches_->push_shared(n, b);
    add_sharer(e, n);
  }
  e.owner = req;
  return r;
}

void Dir1SW::check_block(Block b, const DirEntry& e,
                         std::ostringstream& bad) const {
  if (e.count != e.sharers.size() &&
      !(e.state == DirState::Exclusive || e.state == DirState::Idle)) {
    bad << "block " << b << ": counter " << e.count << " != sharer set size "
        << e.sharers.size() << "\n";
  }
  switch (e.state) {
    case DirState::Idle:
      if (!e.sharers.empty())
        bad << "block " << b << ": Idle with sharers\n";
      for (NodeId n = 0; n < nodes_; ++n) {
        if (caches_->peek(n, b) != LineState::Invalid)
          bad << "block " << b << ": Idle but cached at node " << n << "\n";
      }
      break;
    case DirState::Shared:
      if (e.sharers.empty())
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

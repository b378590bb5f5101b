#include "cico/sim/machine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <sstream>

namespace cico::sim {

using mem::LineState;

// ---------------------------------------------------------------------------
// CacheCtl: the software protocol handler's window into remote caches.
// Only invoked during the boundary phase, when every node fiber is parked.
// ---------------------------------------------------------------------------

LineState Machine::CacheCtl::peek(NodeId n, Block b) const {
  return m_->ctxs_[n]->cache.state_of(b);
}

void Machine::CacheCtl::invalidate(NodeId n, Block b) {
  m_->ctxs_[n]->cache.erase(b);
  m_->ctxs_[n]->prefetch_ready.erase(b);
}

void Machine::CacheCtl::downgrade(NodeId n, Block b) {
  m_->ctxs_[n]->cache.set_state(b, LineState::Shared);
}

void Machine::CacheCtl::push_shared(NodeId n, Block b) {
  auto victim = m_->ctxs_[n]->cache.insert(b, LineState::Shared);
  if (victim.has_value()) {
    // The directory is mid-transaction; queue the victim's put.
    m_->stats_.add(n, Stat::Evictions);
    m_->ctxs_[n]->prefetch_ready.erase(victim->block);
    m_->pending_push_evicts_.emplace_back(n, *victim);
  }
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Machine::Machine(SimConfig cfg)
    : cfg_(cfg),
      stats_(cfg.nodes),
      net_(cfg.cost, stats_),
      cachectl_(this),
      heap_(cfg.heap_base, cfg.cache.block_bytes) {
  if (cfg_.protocol == ProtocolKind::DirNFullMap) {
    dir_ = std::make_unique<proto::DirNFullMap>(cfg.nodes, cfg.cost, net_,
                                                stats_, cachectl_);
  } else {
    dir_ = std::make_unique<proto::Dir1SW>(cfg.nodes, cfg.cost, net_, stats_,
                                           cachectl_);
  }
  if (cfg_.nodes == 0) throw std::invalid_argument("Machine: nodes == 0");
  if (cfg_.faults.injects()) {
    injector_ = std::make_unique<fault::FaultInjector>(cfg_.faults);
    // Keyed draws make every fault a function of the message's identity
    // rather than of service order (and keep the fault stream of a seed
    // fixed since keyed mode was introduced).
    injector_->set_keyed(true);
    net_.set_fault_injector(injector_.get());
  }
  ctxs_.reserve(cfg_.nodes);
  for (std::uint32_t i = 0; i < cfg_.nodes; ++i) {
    ctxs_.push_back(std::make_unique<NodeCtx>(cfg_.cache));
  }
}

const mem::Cache& Machine::cache_of(NodeId n) const { return ctxs_[n]->cache; }

// ---------------------------------------------------------------------------
// run()
// ---------------------------------------------------------------------------

void Machine::run(const std::function<void(Proc&)>& body) {
  if (ran_) throw std::logic_error("Machine::run may be called once");
  ran_ = true;
  const auto host_start = std::chrono::steady_clock::now();

  // Epoch 0 begins at time zero: apply its planned start directives before
  // any node executes.
  for (NodeId n = 0; n < cfg_.nodes; ++n) apply_epoch_start(n, 0);

  window_end_ = cfg_.quantum;
  for (NodeId n = 0; n < cfg_.nodes; ++n) {
    ctxs_[n]->fiber =
        std::make_unique<Fiber>([this, &body, n] { node_main(body, n); });
    ctxs_[n]->resumable = true;
  }
  schedule();
  // Every fiber has finished: release the stacks now rather than with the
  // Machine, so a finished run holds no stack memory.
  for (auto& c : ctxs_) c->fiber.reset();

  host_total_sec_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();

  final_time_ = 0;
  for (auto& c : ctxs_) final_time_ = std::max(final_time_, c->now);

  if (obs_ != nullptr && !abort_error_ && !first_error_) {
    obs_->on_run_end(final_time_, stats_);
  }

  // The abort cause carries the precise type (SimDeadlock, ProtocolTimeout,
  // InvariantViolation); node fibers unwound with a generic SimDeadlock
  // recorded in first_error_, so rethrow the cause preferentially.
  if (abort_error_) std::rethrow_exception(abort_error_);
  if (first_error_) std::rethrow_exception(first_error_);
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

void Machine::node_main(const std::function<void(Proc&)>& body, NodeId n) {
  Proc p(this, n);
  try {
    body(p);
  } catch (...) {
    if (!first_error_) first_error_ = std::current_exception();
  }
  ctxs_[n]->wait = NodeCtx::Wait::Done;
}

void Machine::schedule() {
  bool runnable = true;
  while (runnable && !aborted_) {
    // Window phase: each runnable fiber runs until it parks or finishes,
    // so afterwards every node is parked or done.
    for (auto& c : ctxs_) {
      if (!c->resumable) continue;
      c->resumable = false;
      c->fiber->resume();
    }
    try {
      boundary();
    } catch (...) {
      // A failing epoch-stream sink, or memory exhaustion: abort like any
      // other cause so the parked fibers still unwind below.
      abort_run(std::current_exception(), "boundary phase failed");
    }
    runnable = false;
    for (auto& c : ctxs_) runnable = runnable || c->resumable;
  }
  if (!aborted_) {
    bool all_done = true;
    for (auto& c : ctxs_) all_done = all_done && c->wait == NodeCtx::Wait::Done;
    if (all_done) return;
    // No node can resume yet some are not done (quantum == 0): without
    // this the parked fibers would never unwind.
    const std::string msg = "scheduler stalled: " + wait_dump();
    abort_run(std::make_exception_ptr(SimDeadlock(msg)), msg);
  }
  // Resume every parked fiber once: park() sees aborted_ and throws, so
  // each body unwinds on its own stack before the stacks are released.
  for (auto& c : ctxs_) {
    if (!c->fiber->finished()) c->fiber->resume();
  }
}

// ---------------------------------------------------------------------------
// Node-fiber side (fast path -- switches only in park())
// ---------------------------------------------------------------------------

void Machine::maybe_window_park(NodeCtx& c) {
  if (c.now >= window_end_) park(c, NodeCtx::Wait::Ready);
}

void Machine::park(NodeCtx& c, NodeCtx::Wait w) {
  if (!aborted_) {
    c.wait = w;
    c.fiber->yield();
  }
  // Resumed either by the scheduler (the boundary made this node
  // resumable) or by the abort unwind.
  if (aborted_) throw SimDeadlock(abort_msg_);
  c.wait = NodeCtx::Wait::Running;
}

void Machine::compute(NodeId n, Cycle cycles) {
  NodeCtx& c = *ctxs_[n];
  stats_.add(n, Stat::ComputeCycles, cycles);
  c.now += cycles;
  maybe_window_park(c);
}

void Machine::consume_prefetch(NodeCtx& c, NodeId n, Block b) {
  auto it = c.prefetch_ready.find(b);
  if (it == c.prefetch_ready.end()) return;
  if (it->second > c.now) {
    stats_.add(n, Stat::PrefetchLate);
    stats_.add(n, Stat::StallCycles, it->second - c.now);
    c.now = it->second;
  } else {
    stats_.add(n, Stat::PrefetchUseful);
  }
  c.prefetch_ready.erase(it);
}

void Machine::after_access(NodeCtx& c, NodeId n, Block b, bool write) {
  // DRFS blocks are checked in immediately after their use (section 4.1:
  // "a processor should check it out and check it back in immediately"
  // because another processor will claim the block soon).  For blocks this
  // node WRITES, "after the use" means after the write of the
  // read-modify-write (the section 4.4 listing); for read-only raced
  // blocks, after any access.
  if (plan_ == nullptr) return;
  const NodeEpochDirectives* ned = plan_->find(n, c.epoch);
  if (ned == nullptr) return;
  const bool fire = ned->checkin_after_access.contains(b) ||
                    (write && ned->checkin_after_write.contains(b));
  if (!fire) return;
  const LineState st = c.cache.state_of(b);
  if (st == LineState::Invalid) return;
  stats_.add(n, Stat::CheckIns);
  stats_.add(n, Stat::DirectiveCycles, cfg_.cost.directive_issue);
  stats_.add(n, Stat::CheckInCycles, cfg_.cost.directive_issue);
  c.now += cfg_.cost.directive_issue;
  c.cache.erase(b);
  c.prefetch_ready.erase(b);
  AsyncOp op;
  op.time = c.now;
  op.seq = c.async_seq++;
  op.kind = AsyncOp::Kind::Put;
  op.block = b;
  op.dirty = st == LineState::Exclusive;
  op.explicit_ci = true;
  c.async.push_back(op);
}

void Machine::access(NodeId n, Addr a, std::uint32_t size, bool write, PcId pc) {
  NodeCtx& c = *ctxs_[n];
  stats_.add(n, write ? Stat::SharedStores : Stat::SharedLoads);
  const Block b = cfg_.cache.block_of(a);
  const LineState ls = c.cache.state_of(b);
  const bool hit = ls == LineState::Exclusive || (!write && ls == LineState::Shared);
  if (hit) {
    consume_prefetch(c, n, b);
    c.cache.touch(b);
    c.now += cfg_.cost.hit;
    after_access(c, n, b, write);
    maybe_window_park(c);
    return;
  }
  c.op_addr = a;
  c.op_bytes = size;
  c.op_size = size;
  c.op_pc = pc;
  c.op_write = write;
  c.op_time = c.now;
  c.op_issue = c.now;
  c.op_attempts = 0;
  park(c, NodeCtx::Wait::Mem);
  after_access(c, n, b, write);
  maybe_window_park(c);
}

void Machine::do_barrier(NodeId n, PcId pc) {
  NodeCtx& c = *ctxs_[n];
  c.barrier_pc = pc;
  park(c, NodeCtx::Wait::Barrier);
}

void Machine::do_lock(NodeId n, Addr a) {
  NodeCtx& c = *ctxs_[n];
  c.op_addr = a;
  c.op_time = c.now;
  park(c, NodeCtx::Wait::Lock);
}

void Machine::do_unlock(NodeId n, Addr a) {
  NodeCtx& c = *ctxs_[n];
  AsyncOp op;
  op.time = c.now;
  op.seq = c.async_seq++;
  op.kind = AsyncOp::Kind::Unlock;
  op.lock_addr = a;
  c.async.push_back(op);
  c.now += cfg_.cost.directive_issue;
  maybe_window_park(c);
}

void Machine::directive_range(NodeId n, DirectiveKind kind, Addr a,
                              std::uint64_t bytes) {
  NodeCtx& c = *ctxs_[n];
  c.op_addr = a;
  c.op_bytes = bytes;
  c.op_dir = kind;
  c.op_time = c.now;
  park(c, NodeCtx::Wait::Directive);
}

void Machine::checkin_inline(NodeCtx& c, NodeId n, Addr a, std::uint64_t bytes) {
  const Block first = cfg_.cache.first_block(a);
  const Block last = cfg_.cache.last_block(a, bytes);
  for (Block b = first; b <= last; ++b) {
    const LineState st = c.cache.state_of(b);
    if (st == LineState::Invalid) continue;
    stats_.add(n, Stat::CheckIns);
    stats_.add(n, Stat::DirectiveCycles, cfg_.cost.directive_issue);
    stats_.add(n, Stat::CheckInCycles, cfg_.cost.directive_issue);
    c.now += cfg_.cost.directive_issue;
    c.cache.erase(b);
    c.prefetch_ready.erase(b);
    AsyncOp op;
    op.time = c.now;
    op.seq = c.async_seq++;
    op.kind = AsyncOp::Kind::Put;
    op.block = b;
    op.dirty = st == LineState::Exclusive;
    op.explicit_ci = true;
    c.async.push_back(op);
  }
  maybe_window_park(c);
}

void Machine::poststore_inline(NodeCtx& c, NodeId n, Addr a,
                               std::uint64_t bytes) {
  const Block first = cfg_.cache.first_block(a);
  const Block last = cfg_.cache.last_block(a, bytes);
  for (Block b = first; b <= last; ++b) {
    if (c.cache.state_of(b) != LineState::Exclusive) continue;
    stats_.add(n, Stat::PostStores);
    stats_.add(n, Stat::DirectiveCycles, cfg_.cost.directive_issue);
    stats_.add(n, Stat::PostStoreCycles, cfg_.cost.directive_issue);
    c.now += cfg_.cost.directive_issue;
    // The writer keeps a Shared copy; the downgrade happens when the
    // directory processes the post-store at the boundary.
    AsyncOp op;
    op.time = c.now;
    op.seq = c.async_seq++;
    op.kind = AsyncOp::Kind::PostStore;
    op.block = b;
    c.async.push_back(op);
  }
  maybe_window_park(c);
}

void Machine::prefetch_inline(NodeCtx& c, NodeId n, bool exclusive, Addr a,
                              std::uint64_t bytes) {
  const Block first = cfg_.cache.first_block(a);
  const Block last = cfg_.cache.last_block(a, bytes);
  for (Block b = first; b <= last; ++b) {
    stats_.add(n, Stat::PrefetchIssued);
    stats_.add(n, exclusive ? Stat::PrefetchX : Stat::PrefetchS);
    stats_.add(n, exclusive ? Stat::PrefetchXCycles : Stat::PrefetchSCycles,
               cfg_.cost.prefetch_issue);
    c.now += cfg_.cost.prefetch_issue;
    AsyncOp op;
    op.time = c.now;
    op.seq = c.async_seq++;
    op.kind = AsyncOp::Kind::Prefetch;
    op.block = b;
    op.exclusive = exclusive;
    c.async.push_back(op);
  }
  maybe_window_park(c);
}

// ---------------------------------------------------------------------------
// Boundary phase.  Runs on the scheduler while every node fiber is parked,
// so caches and the directory may be manipulated freely.  All operations
// are serviced in (virtual time, node, issue order) -- fully deterministic.
// ---------------------------------------------------------------------------

std::string Machine::wait_dump() const {
  std::ostringstream os;
  for (NodeId n = 0; n < cfg_.nodes; ++n) {
    const NodeCtx& c = *ctxs_[n];
    const char* w = "?";
    switch (c.wait) {
      case NodeCtx::Wait::Running: w = "running"; break;
      case NodeCtx::Wait::Ready: w = "ready"; break;
      case NodeCtx::Wait::Mem: w = "mem"; break;
      case NodeCtx::Wait::Directive: w = "directive"; break;
      case NodeCtx::Wait::Lock: w = "lock"; break;
      case NodeCtx::Wait::Barrier: w = "barrier"; break;
      case NodeCtx::Wait::Done: w = "done"; break;
    }
    os << 'n' << n << '=' << w;
    if (c.wait == NodeCtx::Wait::Mem) {
      os << "(t=" << c.now << ",retries=" << c.op_attempts << ')';
    }
    os << ' ';
  }
  return os.str();
}

void Machine::boundary() {
  // Dropped messages leave their node parked in Wait::Mem with an advanced
  // op_time, so the boundary loops: each round re-services pending retries
  // at their (virtual) retransmit times.  The watchdog bounds the loop --
  // if the minimum virtual time over live nodes stops advancing for
  // watchdog_rounds consecutive rounds (e.g. a 100% drop rate), the run is
  // aborted as a SimDeadlock instead of livelocking the host.
  struct PhaseTimer {
    double& acc;
    std::chrono::steady_clock::time_point t0;
    ~PhaseTimer() {
      acc += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
    }
  } timer{host_boundary_sec_, std::chrono::steady_clock::now()};

  Cycle watch_min = kNever;
  std::uint32_t stuck_rounds = 0;
  for (;;) {
    // Cooperative cancellation (job deadlines, vanished daemon clients):
    // checked once per round, so a cancel lands within one conservative
    // window of virtual time and never mid-transaction.
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      const std::string msg = "run cancelled (deadline or client gone)";
      abort_run(std::make_exception_ptr(SimCancelled(msg)), msg);
      return;
    }
    // Rounds are a pure function of simulated state, so the counter is
    // deterministic; charged to node 0 like the watchdog's.
    stats_.add(0, Stat::BoundaryRounds);
    process_ops();
    try_complete_barrier();
    if (aborted_) return;

    std::uint32_t done = 0;
    for (auto& c : ctxs_) {
      if (c->wait == NodeCtx::Wait::Done) ++done;
    }
    if (done == cfg_.nodes) {
      if (cfg_.audit_invariants) audit_now("end of run", /*full=*/true);
      return;
    }

    bool any_ready = false;
    Cycle min_now = kNever;
    for (auto& c : ctxs_) {
      if (c->wait == NodeCtx::Wait::Ready) {
        any_ready = true;
        min_now = std::min(min_now, c->now);
      }
    }
    if (any_ready) {
      resume_window(min_now);
      return;
    }

    bool retry_pending = false;
    Cycle live_min = kNever;
    for (auto& c : ctxs_) {
      if (c->wait == NodeCtx::Wait::Mem) retry_pending = true;
      if (c->wait != NodeCtx::Wait::Done) {
        live_min = std::min(live_min, c->now);
      }
    }
    if (retry_pending && cfg_.watchdog_rounds != 0) {
      if (live_min == watch_min) {
        if (++stuck_rounds >= cfg_.watchdog_rounds) {
          stats_.add(0, Stat::WatchdogTrips);
          std::ostringstream os;
          os << "watchdog: no virtual-time progress for "
             << cfg_.watchdog_rounds << " boundary rounds (min t=" << live_min
             << "): " << wait_dump();
          abort_run(std::make_exception_ptr(SimDeadlock(os.str())), os.str());
          return;
        }
      } else {
        watch_min = live_min;
        stuck_rounds = 0;
      }
      continue;
    }
    if (retry_pending) continue;

    std::ostringstream os;
    os << "simulated program deadlocked: " << wait_dump();
    abort_run(std::make_exception_ptr(SimDeadlock(os.str())), os.str());
    return;
  }
}

void Machine::resume_window(Cycle min_now) {
  window_end_ = min_now + cfg_.quantum;
  for (auto& c : ctxs_) {
    if (c->wait == NodeCtx::Wait::Ready && c->now < window_end_) {
      c->resumable = true;
    }
  }
}

void Machine::process_ops() {
  items_.clear();
  for (NodeId n = 0; n < cfg_.nodes; ++n) {
    NodeCtx& c = *ctxs_[n];
    for (std::size_t i = 0; i < c.async.size(); ++i) {
      items_.push_back(Item{c.async[i].time, n, c.async[i].seq,
                            static_cast<int>(i)});
    }
    const bool blocking = c.wait == NodeCtx::Wait::Mem ||
                          c.wait == NodeCtx::Wait::Directive ||
                          (c.wait == NodeCtx::Wait::Lock && !c.lock_queued);
    if (blocking) items_.push_back(Item{c.op_time, n, c.async_seq, -1});
  }
  std::sort(items_.begin(), items_.end(), [](const Item& a, const Item& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.node != b.node) return a.node < b.node;
    return a.seq < b.seq;
  });

  for (const Item& it : items_) {
    if (aborted_) return;
    execute_item(it);
  }
  for (auto& c : ctxs_) {
    c->async.clear();
    c->async_seq = 0;
  }
}

void Machine::execute_item(const Item& it) {
  NodeCtx& c = *ctxs_[it.node];
  if (it.async_idx >= 0) {
    const AsyncOp& op = c.async[static_cast<std::size_t>(it.async_idx)];
    switch (op.kind) {
      case AsyncOp::Kind::Put:
        reliable_put(it.node, op.block, op.dirty, op.time, op.explicit_ci);
        break;
      case AsyncOp::Kind::Prefetch:
        service_prefetch(c, it.node, op.block, op.exclusive, op.time);
        break;
      case AsyncOp::Kind::Unlock:
        release_lock(op.lock_addr, it.node, op.time);
        break;
      case AsyncOp::Kind::PostStore:
        reliable_post_store(it.node, op.block, op.time);
        break;
    }
    if (!pending_push_evicts_.empty()) {
      for (auto& [vn, victim] : pending_push_evicts_) {
        reliable_put(vn, victim.block, victim.state == LineState::Exclusive,
                     it.time, false);
      }
      pending_push_evicts_.clear();
    }
  } else {
    switch (c.wait) {
      case NodeCtx::Wait::Mem:
        service_mem(c, it.node);
        break;
      case NodeCtx::Wait::Directive:
        service_checkout_range(c, it.node);
        break;
      case NodeCtx::Wait::Lock:
        grant_or_queue_lock(c, it.node);
        break;
      default:
        break;  // already handled (e.g. lock granted by an earlier unlock)
    }
  }
}

void Machine::record_obs_trap(NodeId n, Block b, Cycle t0, Cycle t1,
                              std::uint32_t invalidations, EpochId epoch) {
  if (obs_ == nullptr) return;
  obs_->on_trap(n, dir_->home_of(b), b, t0, t1, invalidations, epoch);
}

void Machine::insert_line(NodeCtx& c, NodeId n, Block b, LineState s, Cycle t) {
  auto victim = c.cache.insert(b, s);
  if (victim.has_value()) {
    stats_.add(n, Stat::Evictions);
    c.prefetch_ready.erase(victim->block);
    reliable_put(n, victim->block, victim->state == LineState::Exclusive, t,
                 false);
  }
}

void Machine::service_mem(NodeCtx& c, NodeId n) {
  const Block b = cfg_.cache.block_of(c.op_addr);
  Cycle t = c.op_time;

  // An in-flight prefetch of this block completes first.
  auto pit = c.prefetch_ready.find(b);
  if (pit != c.prefetch_ready.end()) {
    if (pit->second > t) {
      stats_.add(n, Stat::PrefetchLate);
      stats_.add(n, Stat::StallCycles, pit->second - t);
      t = pit->second;
    } else {
      stats_.add(n, Stat::PrefetchUseful);
    }
    c.prefetch_ready.erase(pit);
  }

  // Another boundary action (prefetch fill, earlier directive) may have
  // satisfied the access already.
  const LineState ls = c.cache.state_of(b);
  const bool write = c.op_write;
  if ((ls == LineState::Exclusive) || (!write && ls != LineState::Invalid)) {
    c.cache.touch(b);
    c.now = t + cfg_.cost.hit;
    c.wait = NodeCtx::Wait::Ready;
    return;
  }

  // Miss classification is stable across retries (a dropped request never
  // mutates the directory), so count each miss once, on the first attempt.
  const bool first_attempt = c.op_attempts == 0;
  proto::ServiceResult res;
  trace::MissKind kind;
  bool fetch_excl = write;
  if (write) {
    if (ls == LineState::Shared) {
      kind = trace::MissKind::WriteFault;
      if (first_attempt) stats_.add(n, Stat::WriteFaults);
    } else {
      kind = trace::MissKind::WriteMiss;
      if (first_attempt) stats_.add(n, Stat::WriteMisses);
    }
  } else {
    kind = trace::MissKind::ReadMiss;
    if (first_attempt) stats_.add(n, Stat::ReadMisses);
    const NodeEpochDirectives* ned =
        plan_ != nullptr ? plan_->find(n, c.epoch) : nullptr;
    if (ned != nullptr && ned->fetch_exclusive.contains(b)) {
      // Performance-CICO check_out_X placed immediately before the first
      // read of a read-then-written block (section 4.1): fetch the block
      // exclusive in one transaction instead of GetS + later upgrade.
      fetch_excl = true;
      if (first_attempt) {
        stats_.add(n, Stat::CheckOutX);
        stats_.add(n, Stat::DirectiveCycles, cfg_.cost.directive_issue);
        stats_.add(n, Stat::CheckOutXCycles, cfg_.cost.directive_issue);
        t += cfg_.cost.directive_issue;
      }
    }
  }
  res = fetch_excl ? dir_->get_exclusive(n, b, t, false)
                   : dir_->get_shared(n, b, t, false);
  if (res.dropped) {
    // The request (or its reply) was eaten by a fault.  The node stays
    // parked in Wait::Mem with its retransmit scheduled after the timeout
    // plus exponential backoff; the boundary loop re-services it.
    const std::uint32_t budget = cfg_.faults.max_retries;
    if (budget != 0 && c.op_attempts >= budget) {
      std::ostringstream os;
      os << "node " << n << ": " << (write ? "store" : "load") << " of block "
         << b << " lost " << (c.op_attempts + 1)
         << " times; retry budget (" << budget << ") exhausted at t="
         << res.done_at;
      abort_run(std::make_exception_ptr(ProtocolTimeout(os.str())), os.str());
      return;
    }
    stats_.add(n, Stat::Retries);
    c.op_time = res.done_at + retry_backoff(c.op_attempts);
    ++c.op_attempts;
    return;
  }
  if (res.trapped) {
    record_obs_trap(n, b, t, res.done_at, res.invalidations, c.epoch);
  }
  insert_line(c, n, b, fetch_excl ? LineState::Exclusive : LineState::Shared,
              res.done_at);
  stats_.add(n, Stat::StallCycles, res.done_at - c.op_issue);
  c.now = res.done_at;
  c.op_attempts = 0;
  if (tracer_ != nullptr) {
    tracer_->record_miss(n, kind, c.op_addr, c.op_size, c.op_pc, c.epoch);
  }
  c.wait = NodeCtx::Wait::Ready;
}

Cycle Machine::do_checkout(NodeCtx& c, NodeId n, DirectiveKind kind,
                           BlockRun run, Cycle t) {
  const bool excl = kind == DirectiveKind::CheckOutX;
  for (Block b = run.first; b <= run.last; ++b) {
    stats_.add(n, excl ? Stat::CheckOutX : Stat::CheckOutS);
    t += cfg_.cost.directive_issue;
    const LineState ls = c.cache.state_of(b);
    if (ls == LineState::Exclusive || (!excl && ls != LineState::Invalid)) {
      c.cache.touch(b);
      continue;
    }
    // Check-out ranges block the node but are serviced in one boundary
    // visit, so lost requests are retried inline rather than by re-parking.
    proto::ServiceResult res;
    std::uint32_t attempt = 0;
    Cycle req_t = t;
    for (;;) {
      req_t = t;
      res = excl ? dir_->get_exclusive(n, b, t, false)
                 : dir_->get_shared(n, b, t, false);
      if (!res.dropped) break;
      if (inline_retry_exhausted(attempt)) {
        std::ostringstream os;
        os << "node " << n << ": check-out of block " << b << " lost "
           << (attempt + 1) << " times; retry budget exhausted at t="
           << res.done_at;
        abort_run(std::make_exception_ptr(ProtocolTimeout(os.str())),
                  os.str());
        return t;
      }
      stats_.add(n, Stat::Retries);
      t = res.done_at + retry_backoff(attempt);
      ++attempt;
    }
    if (res.trapped) {
      record_obs_trap(n, b, req_t, res.done_at, res.invalidations, c.epoch);
    }
    insert_line(c, n, b, excl ? LineState::Exclusive : LineState::Shared,
                res.done_at);
    t = res.done_at;
    if (aborted_) return t;
  }
  return t;
}

void Machine::service_checkout_range(NodeCtx& c, NodeId n) {
  const BlockRun run{cfg_.cache.first_block(c.op_addr),
                     cfg_.cache.last_block(c.op_addr, c.op_bytes)};
  const Cycle t0 = c.op_time;
  const Cycle t = do_checkout(c, n, c.op_dir, run, t0);
  stats_.add(n, Stat::DirectiveCycles, t - t0);
  stats_.add(n,
             c.op_dir == DirectiveKind::CheckOutX ? Stat::CheckOutXCycles
                                                  : Stat::CheckOutSCycles,
             t - t0);
  c.now = t;
  c.wait = NodeCtx::Wait::Ready;
}

void Machine::service_prefetch(NodeCtx& c, NodeId n, Block b, bool exclusive,
                               Cycle t) {
  const std::uint32_t throttle = cfg_.faults.throttle_after;
  if (throttle != 0 && c.prefetch_muted) {
    // The engine saw too many consecutive failures this epoch and backed
    // off; issued prefetches are swallowed until the next barrier.
    stats_.add(n, Stat::PrefetchThrottled);
    return;
  }
  const LineState ls = c.cache.state_of(b);
  if (ls == LineState::Exclusive || (!exclusive && ls != LineState::Invalid)) {
    return;  // already cached in a sufficient state
  }
  if (c.prefetch_ready.contains(b)) return;  // already in flight
  const proto::ServiceResult res = exclusive
                                       ? dir_->get_exclusive(n, b, t, true)
                                       : dir_->get_shared(n, b, t, true);
  if (res.dropped) {
    // Prefetches are never retried: a lost one is a missed opportunity,
    // not an obligation.  It still counts against the throttle.
    if (throttle != 0 && ++c.prefetch_nacks >= throttle) {
      c.prefetch_muted = true;
    }
    return;
  }
  if (res.nacked) {
    stats_.add(n, Stat::PrefetchDropped);
    if (throttle != 0 && ++c.prefetch_nacks >= throttle) {
      c.prefetch_muted = true;
    }
    return;
  }
  if (throttle != 0) c.prefetch_nacks = 0;
  if (res.trapped) {
    record_obs_trap(n, b, t, res.done_at, res.invalidations, c.epoch);
  }
  // Prefetched data streams in bandwidth-limited: completions at one node
  // are spaced at least prefetch_min_gap apart.
  Cycle done = res.done_at;
  if (c.prefetch_last_done + cfg_.cost.prefetch_min_gap > done) {
    done = c.prefetch_last_done + cfg_.cost.prefetch_min_gap;
  }
  c.prefetch_last_done = done;
  insert_line(c, n, b, exclusive ? LineState::Exclusive : LineState::Shared, t);
  c.prefetch_ready[b] = done;
  if (obs_ != nullptr) obs_->on_prefetch_fill(n, b, t, done, c.epoch);
}

void Machine::grant_or_queue_lock(NodeCtx& c, NodeId n) {
  LockState& L = locks_[c.op_addr];
  if (!L.held) {
    L.held = true;
    L.holder = n;
    stats_.add(n, Stat::LockAcquires);
    c.now = c.op_time + cfg_.cost.lock;
    c.wait = NodeCtx::Wait::Ready;
    c.lock_queued = false;
  } else {
    stats_.add(n, Stat::LockContended);
    L.queue.push_back(LockState::Waiter{c.op_time, n});
    c.lock_queued = true;
  }
}

void Machine::release_lock(Addr a, NodeId /*n*/, Cycle t) {
  LockState& L = locks_[a];
  L.held = false;
  L.holder = kInvalidNode;
  if (L.queue.empty()) return;
  auto it = std::min_element(L.queue.begin(), L.queue.end(),
                             [](const LockState::Waiter& x,
                                const LockState::Waiter& y) {
                               if (x.time != y.time) return x.time < y.time;
                               return x.node < y.node;
                             });
  const LockState::Waiter w = *it;
  L.queue.erase(it);
  NodeCtx& wc = *ctxs_[w.node];
  L.held = true;
  L.holder = w.node;
  stats_.add(w.node, Stat::LockAcquires);
  wc.now = std::max(t, w.time) + cfg_.cost.lock;
  wc.wait = NodeCtx::Wait::Ready;
  wc.lock_queued = false;
}

bool Machine::try_complete_barrier() {
  if (aborted_) return false;
  std::vector<NodeId> at_barrier;
  std::uint32_t done = 0;
  for (NodeId n = 0; n < cfg_.nodes; ++n) {
    if (ctxs_[n]->wait == NodeCtx::Wait::Barrier) at_barrier.push_back(n);
    else if (ctxs_[n]->wait == NodeCtx::Wait::Done) ++done;
  }
  if (at_barrier.empty() ||
      at_barrier.size() + done != cfg_.nodes) {
    return false;
  }

  // 1. Planned end-of-epoch check-ins.
  for (NodeId n : at_barrier) apply_epoch_end(n, ctxs_[n]->epoch);

  // 2. Trace collection: barrier records, then the barrier cache flush of
  //    section 3.3 (only accesses that miss appear in the trace, so caches
  //    are emptied at every epoch boundary to expose reuse).
  if (tracer_ != nullptr) {
    for (NodeId n : at_barrier) {
      NodeCtx& c = *ctxs_[n];
      tracer_->record_barrier(n, c.barrier_pc, c.now, c.epoch);
      if (cfg_.trace_mode) {
        c.prefetch_ready.clear();
        c.cache.flush([&](Block b, LineState st) {
          reliable_put(n, b, st == LineState::Exclusive, c.now, false);
        });
      }
    }
    tracer_->end_epoch();
  }

  // 2b. Paranoid mode: the barrier is a quiescent point (every pending
  //     operation has been serviced), so the directory and every cache
  //     must agree exactly.  Abort on the first divergence.
  if (cfg_.audit_invariants) {
    std::ostringstream when;
    when << "epoch " << global_epoch_ << " boundary";
    audit_now(when.str(), /*full=*/false);
    if (aborted_) return true;
  }

  // 3. Synchronize virtual times.
  Cycle t = 0;
  for (NodeId n : at_barrier) t = std::max(t, ctxs_[n]->now);
  t += cfg_.cost.barrier;

  // 3a. Observability: per-node barrier waits (arrival -> release) and the
  //     epoch's time-series row, flushed before the next epoch's planned
  //     directives execute.
  if (obs_ != nullptr) {
    for (NodeId n : at_barrier) {
      obs_->on_barrier_wait(n, ctxs_[n]->now, t, global_epoch_);
    }
    obs_->on_epoch_end(global_epoch_, t, stats_);
  }

  ++global_epoch_;
  for (NodeId n : at_barrier) {
    NodeCtx& c = *ctxs_[n];
    c.now = t;
    c.epoch = global_epoch_;
    stats_.add(n, Stat::Barriers);
    c.wait = NodeCtx::Wait::Ready;
    c.prefetch_nacks = 0;       // throttled prefetch engines recover at the
    c.prefetch_muted = false;   // epoch boundary
  }

  // 4. Planned start-of-epoch check-outs / prefetches.
  for (NodeId n : at_barrier) apply_epoch_start(n, global_epoch_);
  return true;
}

void Machine::apply_epoch_start(NodeId n, EpochId e) {
  if (plan_ == nullptr) return;
  const NodeEpochDirectives* ned = plan_->find(n, e);
  if (ned == nullptr) return;
  NodeCtx& c = *ctxs_[n];
  for (const PlannedDirective& pd : ned->at_start) {
    switch (pd.kind) {
      case DirectiveKind::CheckOutX:
      case DirectiveKind::CheckOutS: {
        const Cycle t0 = c.now;
        c.now = do_checkout(c, n, pd.kind, pd.run, c.now);
        stats_.add(n, Stat::DirectiveCycles, c.now - t0);
        stats_.add(n,
                   pd.kind == DirectiveKind::CheckOutX ? Stat::CheckOutXCycles
                                                       : Stat::CheckOutSCycles,
                   c.now - t0);
        break;
      }
      case DirectiveKind::PrefetchX:
      case DirectiveKind::PrefetchS: {
        const bool excl = pd.kind == DirectiveKind::PrefetchX;
        for (Block b = pd.run.first; b <= pd.run.last; ++b) {
          stats_.add(n, Stat::PrefetchIssued);
          stats_.add(n, excl ? Stat::PrefetchX : Stat::PrefetchS);
          stats_.add(n, excl ? Stat::PrefetchXCycles : Stat::PrefetchSCycles,
                     cfg_.cost.prefetch_issue);
          c.now += cfg_.cost.prefetch_issue;
          service_prefetch(c, n, b, excl, c.now);
        }
        break;
      }
      case DirectiveKind::CheckIn:
        break;  // check-ins never appear in at_start
    }
  }
}

void Machine::apply_epoch_end(NodeId n, EpochId e) {
  if (plan_ == nullptr) return;
  const NodeEpochDirectives* ned = plan_->find(n, e);
  if (ned == nullptr) return;
  NodeCtx& c = *ctxs_[n];
  for (const PlannedDirective& pd : ned->at_end) {
    if (pd.kind != DirectiveKind::CheckIn) continue;
    for (Block b = pd.run.first; b <= pd.run.last; ++b) {
      const LineState st = c.cache.state_of(b);
      if (st == LineState::Invalid) continue;
      stats_.add(n, Stat::CheckIns);
      stats_.add(n, Stat::DirectiveCycles, cfg_.cost.directive_issue);
      stats_.add(n, Stat::CheckInCycles, cfg_.cost.directive_issue);
      c.now += cfg_.cost.directive_issue;
      c.cache.erase(b);
      c.prefetch_ready.erase(b);
      reliable_put(n, b, st == LineState::Exclusive, c.now, true);
    }
  }
}

// ---------------------------------------------------------------------------
// Fault handling
// ---------------------------------------------------------------------------

Cycle Machine::retry_backoff(std::uint32_t attempt) const {
  const Cycle base = cfg_.faults.backoff_base != 0
                         ? cfg_.faults.backoff_base
                         : 2 * cfg_.cost.hw_miss_latency();
  const std::uint32_t shift = attempt < 12 ? attempt : 12;
  const Cycle d = base << shift;
  return d < cfg_.faults.backoff_cap ? d : cfg_.faults.backoff_cap;
}

bool Machine::inline_retry_exhausted(std::uint32_t attempt) const {
  // Inline retries cannot park the node, so even an "unbounded" budget is
  // capped: 64 consecutive losses of one message only happens when the
  // drop rate is effectively 1, and then aborting beats spinning.
  const std::uint32_t budget =
      cfg_.faults.max_retries != 0 ? cfg_.faults.max_retries : 64;
  return attempt >= budget;
}

void Machine::abort_run(std::exception_ptr e, std::string msg) {
  if (aborted_) return;
  aborted_ = true;
  abort_msg_ = std::move(msg);
  abort_error_ = std::move(e);
}

void Machine::reliable_put(NodeId n, Block b, bool dirty, Cycle t,
                           bool explicit_ci) {
  // The caller already erased the line from its cache, so the put MUST
  // land eventually or the directory stays permanently ahead of the cache.
  std::uint32_t attempt = 0;
  for (;;) {
    const proto::ServiceResult res = dir_->put(n, b, dirty, t, explicit_ci);
    if (!res.dropped) return;
    if (inline_retry_exhausted(attempt)) {
      std::ostringstream os;
      os << "node " << n << ": check-in of block " << b << " lost "
         << (attempt + 1) << " times; retry budget exhausted at t="
         << res.done_at;
      abort_run(std::make_exception_ptr(ProtocolTimeout(os.str())), os.str());
      return;
    }
    stats_.add(n, Stat::Retries);
    t = res.done_at + retry_backoff(attempt);
    ++attempt;
  }
}

void Machine::reliable_post_store(NodeId n, Block b, Cycle t) {
  std::uint32_t attempt = 0;
  for (;;) {
    const proto::ServiceResult res = dir_->post_store(n, b, t);
    if (!res.dropped) return;
    if (inline_retry_exhausted(attempt)) {
      std::ostringstream os;
      os << "node " << n << ": post-store of block " << b << " lost "
         << (attempt + 1) << " times; retry budget exhausted at t="
         << res.done_at;
      abort_run(std::make_exception_ptr(ProtocolTimeout(os.str())), os.str());
      return;
    }
    stats_.add(n, Stat::Retries);
    t = res.done_at + retry_backoff(attempt);
    ++attempt;
  }
}

void Machine::audit_now(const std::string& when, bool full) {
  const std::string diag = full || !cfg_.audit_memo
                               ? dir_->check_invariants()
                               : dir_->check_invariants_incremental();
  if (diag.empty()) return;
  std::ostringstream os;
  os << "invariant audit failed (" << when << "):\n" << diag;
  abort_run(std::make_exception_ptr(InvariantViolation(os.str())), os.str());
}

// ---------------------------------------------------------------------------
// Proc forwarding
// ---------------------------------------------------------------------------

std::uint32_t Proc::nprocs() const { return m_->cfg_.nodes; }
Cycle Proc::now() const { return m_->ctxs_[node_]->now; }
EpochId Proc::epoch() const { return m_->ctxs_[node_]->epoch; }

void Proc::compute(Cycle cycles) { m_->compute(node_, cycles); }
void Proc::ld(Addr a, std::uint32_t size, PcId pc) {
  m_->access(node_, a, size, /*write=*/false, pc);
}
void Proc::st(Addr a, std::uint32_t size, PcId pc) {
  m_->access(node_, a, size, /*write=*/true, pc);
}
void Proc::barrier(PcId pc) { m_->do_barrier(node_, pc); }
void Proc::lock(Addr a) { m_->do_lock(node_, a); }
void Proc::unlock(Addr a) { m_->do_unlock(node_, a); }

void Proc::check_out_x(Addr a, std::uint64_t bytes) {
  m_->directive_range(node_, DirectiveKind::CheckOutX, a, bytes);
}
void Proc::check_out_s(Addr a, std::uint64_t bytes) {
  m_->directive_range(node_, DirectiveKind::CheckOutS, a, bytes);
}
void Proc::check_in(Addr a, std::uint64_t bytes) {
  m_->checkin_inline(*m_->ctxs_[node_], node_, a, bytes);
}
void Proc::post_store(Addr a, std::uint64_t bytes) {
  m_->poststore_inline(*m_->ctxs_[node_], node_, a, bytes);
}
void Proc::prefetch_x(Addr a, std::uint64_t bytes) {
  m_->prefetch_inline(*m_->ctxs_[node_], node_, /*exclusive=*/true, a, bytes);
}
void Proc::prefetch_s(Addr a, std::uint64_t bytes) {
  m_->prefetch_inline(*m_->ctxs_[node_], node_, /*exclusive=*/false, a, bytes);
}

}  // namespace cico::sim

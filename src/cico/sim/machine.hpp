// Execution-driven multiprocessor simulator (the WWT substitute).
//
// Each simulated node's program runs as a stackful fiber (fiber.hpp) on
// the host thread that calls Machine::run, and keeps a local virtual
// clock.  Fibers execute inside a conservative window of `quantum`
// cycles: shared-data cache HITS are charged inline; MISSES, explicit
// directives, barriers and locks park the fiber, which switches back to
// the scheduler.  The scheduler resumes runnable fibers in ascending node
// order; once every fiber is parked it runs the *boundary phase*: all
// pending operations are serviced through the directory in (virtual time,
// node) order, making every reported metric deterministic.  This is the
// same quantum-based conservative synchronization WWT used on the CM-5;
// because the schedule is a fixed function of simulated state, even the
// host values a racy program leaves in shared arrays repeat run to run.
//
// The engine also implements the measurement hooks the paper needs:
//   * trace mode -- records every miss and flushes all shared-data caches
//     at each barrier (section 3.3), producing the Fig. 3 trace;
//   * directive plans -- Cachier's output for compiled programs, applied
//     automatically at epoch boundaries and access sites (see plan.hpp);
//   * explicit CICO directives -- for hand-annotated programs and for the
//     MiniPar interpreter.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cico/common/pc_registry.hpp"
#include "cico/common/stats.hpp"
#include "cico/common/types.hpp"
#include "cico/mem/cache.hpp"
#include "cico/net/network.hpp"
#include "cico/obs/collector.hpp"
#include "cico/proto/dir1sw.hpp"
#include "cico/proto/dirn.hpp"
#include "cico/sim/config.hpp"
#include "cico/sim/fiber.hpp"
#include "cico/sim/plan.hpp"
#include "cico/sim/shared_heap.hpp"
#include "cico/trace/trace.hpp"

namespace cico::sim {

class Machine;

/// Per-node runtime handle: everything a simulated program may do.
/// A Proc is only valid inside the body function passed to Machine::run.
class Proc {
 public:
  [[nodiscard]] NodeId id() const { return node_; }
  [[nodiscard]] std::uint32_t nprocs() const;
  [[nodiscard]] Cycle now() const;
  [[nodiscard]] EpochId epoch() const;

  /// Charge local (non-shared) computation.
  void compute(Cycle cycles);

  /// Shared-data load / store of `size` bytes at word address `a`.
  void ld(Addr a, std::uint32_t size, PcId pc);
  void st(Addr a, std::uint32_t size, PcId pc);

  /// Global barrier (ends the current epoch).
  void barrier(PcId pc = kNoPc);

  /// Spin lock keyed by shared address (the paper's `lock C[i,j]`, s.5).
  void lock(Addr a);
  void unlock(Addr a);

  // --- CICO directives (section 2.1) -------------------------------------
  void check_out_x(Addr a, std::uint64_t bytes);
  void check_out_s(Addr a, std::uint64_t bytes);
  void check_in(Addr a, std::uint64_t bytes);
  void prefetch_x(Addr a, std::uint64_t bytes);
  void prefetch_s(Addr a, std::uint64_t bytes);
  /// EXTENSION (KSR-1 style, paper section 1): write back + push Shared
  /// copies of exclusively-held blocks to their previous holders.
  void post_store(Addr a, std::uint64_t bytes);

 private:
  friend class Machine;
  Proc(Machine* m, NodeId n) : m_(m), node_(n) {}
  Machine* m_;
  NodeId node_;
};

/// Thrown when the simulated program deadlocks (mismatched barriers,
/// lock cycles) or when the liveness watchdog detects zero virtual-time
/// progress across SimConfig::watchdog_rounds boundary rounds.
class SimDeadlock : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when an injected message loss exhausts the retry budget
/// (FaultSpec::max_retries) before the operation completes.
class ProtocolTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown in paranoid mode (SimConfig::audit_invariants) when the
/// per-epoch audit finds a directory/cache divergence.
class InvariantViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when an external cancel flag (Machine::set_cancel_flag) is
/// observed at a window boundary: a job deadline expired or the client
/// that asked for the run went away.  Cooperative -- the run unwinds
/// through the same abort path as SimDeadlock, so every node fiber
/// unwinds to its end and the Machine is left safe to destroy.
class SimCancelled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Machine {
 public:
  explicit Machine(SimConfig cfg);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] const SimConfig& config() const { return cfg_; }
  [[nodiscard]] SharedHeap& heap() { return heap_; }
  [[nodiscard]] const SharedHeap& heap() const { return heap_; }
  [[nodiscard]] PcRegistry& pcs() { return pcs_; }
  [[nodiscard]] Stats& stats() { return stats_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] net::Network& network() { return net_; }
  [[nodiscard]] proto::Protocol& directory() { return *dir_; }

  /// Enable trace collection (implies barrier cache flushes when
  /// cfg.trace_mode is set; the writer outlives the run).
  void set_trace_writer(trace::TraceWriter* w) { tracer_ = w; }

  /// Install a Cachier directive plan for this run (may be null).
  void set_plan(const DirectivePlan* p) { plan_ = p; }

  /// Cooperative cancellation: when `f` is non-null, every boundary round
  /// (at most one conservative window, cfg.quantum cycles, apart) checks
  /// it and aborts the run with SimCancelled once it reads true.  The
  /// flag may be set from any thread at any time (the daemon's deadline /
  /// disconnect monitor does); the Machine only ever reads it.
  void set_cancel_flag(const std::atomic<bool>* f) { cancel_ = f; }

  /// Attach an observability collector (may be null; the collector must
  /// outlive the run).  Callbacks fire from the boundary phase on
  /// simulated virtual time, in the deterministic service order.
  void set_observer(obs::Collector* o) { obs_ = o; }

  /// Runs `body` on every node to completion, each node as a fiber on the
  /// calling thread.  May be called once.  An exception thrown by a body
  /// (or an abort: SimDeadlock, ProtocolTimeout, InvariantViolation,
  /// SimCancelled) is rethrown here once every fiber has unwound.  A body
  /// must not call into its Proc from inside a catch handler: handled
  /// exceptions are tracked per host thread, so a fiber switch there would
  /// mix its handler with another node's.
  void run(const std::function<void(Proc&)>& body);

  /// Execution time = max node completion time (valid after run()).
  [[nodiscard]] Cycle exec_time() const { return final_time_; }

  /// Number of barrier episodes completed.
  [[nodiscard]] EpochId epochs_completed() const { return global_epoch_; }

  /// Per-node cache (tests / invariant checks).
  [[nodiscard]] const mem::Cache& cache_of(NodeId n) const;

  /// Attached fault injector, or nullptr when faults are disabled
  /// (soak reports read its telemetry after run()).
  [[nodiscard]] const fault::FaultInjector* fault_injector() const {
    return injector_.get();
  }

  /// Host wall-clock of the whole run and of its boundary phase (valid
  /// after run()).  Nondeterministic by nature: report on stderr or in
  /// benches, never in deterministic output.
  [[nodiscard]] double host_total_seconds() const { return host_total_sec_; }
  [[nodiscard]] double host_boundary_seconds() const {
    return host_boundary_sec_;
  }

 private:
  friend class Proc;

  struct AsyncOp {
    enum class Kind : std::uint8_t { Put, Prefetch, Unlock, PostStore };
    Cycle time = 0;
    std::uint32_t seq = 0;
    Kind kind = Kind::Put;
    Block block = 0;
    bool dirty = false;
    bool explicit_ci = false;
    bool exclusive = false;  // prefetch mode
    Addr lock_addr = 0;
  };

  struct NodeCtx {
    explicit NodeCtx(const mem::CacheGeometry& g) : cache(g) {}

    enum class Wait : std::uint8_t {
      Running,   ///< executing user code
      Ready,     ///< parked, nothing pending; resume when window allows
      Mem,       ///< parked on a shared-memory miss
      Directive, ///< parked on a blocking check-out range
      Lock,      ///< parked waiting for a lock grant
      Barrier,   ///< parked at a barrier
      Done,      ///< program body returned
    };

    Cycle now = 0;
    EpochId epoch = 0;
    Wait wait = Wait::Running;
    bool resumable = false;
    bool lock_queued = false;  ///< lock request already sits in a queue

    // Blocking-op payload (valid when wait is Mem/Directive/Lock).
    Addr op_addr = 0;
    std::uint64_t op_bytes = 0;
    std::uint32_t op_size = 0;
    PcId op_pc = kNoPc;
    bool op_write = false;
    Cycle op_time = 0;
    DirectiveKind op_dir = DirectiveKind::CheckOutX;
    PcId barrier_pc = kNoPc;
    Cycle op_issue = 0;             ///< original issue time (stall accounting)
    std::uint32_t op_attempts = 0;  ///< retries performed for the pending op

    std::uint32_t prefetch_nacks = 0;  ///< consecutive failed prefetches
    bool prefetch_muted = false;       ///< engine throttled until next epoch

    std::vector<AsyncOp> async;
    std::uint32_t async_seq = 0;

    mem::Cache cache;
    std::unordered_map<Block, Cycle> prefetch_ready;
    Cycle prefetch_last_done = 0;  ///< bandwidth pacing of prefetch fills
    std::unique_ptr<Fiber> fiber;  ///< the node's program (during run())
  };

  struct LockState {
    bool held = false;
    NodeId holder = kInvalidNode;
    struct Waiter {
      Cycle time;
      NodeId node;
    };
    std::vector<Waiter> queue;
  };

  class CacheCtl final : public proto::CacheControl {
   public:
    explicit CacheCtl(Machine* m) : m_(m) {}
    [[nodiscard]] mem::LineState peek(NodeId n, Block b) const override;
    void invalidate(NodeId n, Block b) override;
    void downgrade(NodeId n, Block b) override;
    void push_shared(NodeId n, Block b) override;

   private:
    Machine* m_;
  };

  // --- scheduler -------------------------------------------------------------
  /// A node fiber's entry: runs the body, records its first error.
  void node_main(const std::function<void(Proc&)>& body, NodeId n);
  /// Sweeps runnable fibers and runs the boundary phase until every node
  /// is done or the run aborts; then unwinds any fiber still parked.
  void schedule();

  // --- node-fiber side -------------------------------------------------------
  void access(NodeId n, Addr a, std::uint32_t size, bool write, PcId pc);
  void compute(NodeId n, Cycle cycles);
  void do_barrier(NodeId n, PcId pc);
  void do_lock(NodeId n, Addr a);
  void do_unlock(NodeId n, Addr a);
  void directive_range(NodeId n, DirectiveKind kind, Addr a, std::uint64_t bytes);
  void checkin_inline(NodeCtx& c, NodeId n, Addr a, std::uint64_t bytes);
  void poststore_inline(NodeCtx& c, NodeId n, Addr a, std::uint64_t bytes);
  void prefetch_inline(NodeCtx& c, NodeId n, bool exclusive, Addr a,
                       std::uint64_t bytes);
  void after_access(NodeCtx& c, NodeId n, Block b, bool write);
  void consume_prefetch(NodeCtx& c, NodeId n, Block b);
  void maybe_window_park(NodeCtx& c);
  void park(NodeCtx& c, NodeCtx::Wait w);

  // --- boundary phase (runs on the scheduler with every fiber parked) -------

  /// One pending boundary operation in canonical (time, node, seq) order.
  struct Item {
    Cycle time;
    NodeId node;
    std::uint32_t seq;
    int async_idx;  // -1 => the node's blocking op
  };

  void boundary();
  void resume_window(Cycle min_now);
  void process_ops();
  void execute_item(const Item& it);
  void service_mem(NodeCtx& c, NodeId n);
  void service_checkout_range(NodeCtx& c, NodeId n);
  Cycle do_checkout(NodeCtx& c, NodeId n, DirectiveKind kind, BlockRun run,
                    Cycle t);
  void service_prefetch(NodeCtx& c, NodeId n, Block b, bool exclusive, Cycle t);
  void grant_or_queue_lock(NodeCtx& c, NodeId n);
  void release_lock(Addr a, NodeId n, Cycle t);
  bool try_complete_barrier();
  void apply_epoch_start(NodeId n, EpochId e);
  void apply_epoch_end(NodeId n, EpochId e);
  void insert_line(NodeCtx& c, NodeId n, Block b, mem::LineState s, Cycle t);
  void record_obs_trap(NodeId n, Block b, Cycle t0, Cycle t1,
                       std::uint32_t invalidations, EpochId epoch);

  // --- fault handling (boundary side) --------------------------------------
  /// Backoff before retry number `attempt` (exponential, capped).
  [[nodiscard]] Cycle retry_backoff(std::uint32_t attempt) const;
  /// Budget check for fire-and-forget retries that cannot park the node
  /// (puts, post-stores, check-out ranges); unbounded specs are capped.
  [[nodiscard]] bool inline_retry_exhausted(std::uint32_t attempt) const;
  /// put() retried until it lands; aborts with ProtocolTimeout on budget
  /// exhaustion.  The ONLY safe way to issue a put under fault injection:
  /// the cache line is already gone, so a silently lost put would leave
  /// the directory permanently ahead of the cache.
  void reliable_put(NodeId n, Block b, bool dirty, Cycle t, bool explicit_ci);
  void reliable_post_store(NodeId n, Block b, Cycle t);
  /// Records the first abort cause; parked fibers observe `aborted_` and
  /// unwind, run() rethrows `abort_error_`.  Never throws.
  void abort_run(std::exception_ptr e, std::string msg);
  /// Paranoid-mode audit; aborts with InvariantViolation on divergence.
  /// Per-epoch audits run memoized (only blocks touched since the last
  /// clean audit are rechecked); `full` forces the exhaustive walk, used
  /// as the end-of-run backstop and when SimConfig::audit_memo is off.
  void audit_now(const std::string& when, bool full);
  [[nodiscard]] std::string wait_dump() const;

  SimConfig cfg_;
  PcRegistry pcs_;
  Stats stats_;
  net::Network net_;
  CacheCtl cachectl_;
  std::unique_ptr<proto::Protocol> dir_;
  std::unique_ptr<fault::FaultInjector> injector_;
  SharedHeap heap_;
  std::vector<std::unique_ptr<NodeCtx>> ctxs_;
  std::unordered_map<Addr, LockState> locks_;
  /// Evictions caused by push_shared while the directory is mid-call;
  /// drained after the triggering transaction returns (re-entrancy guard).
  std::vector<std::pair<NodeId, mem::Cache::Eviction>> pending_push_evicts_;

  trace::TraceWriter* tracer_ = nullptr;
  const DirectivePlan* plan_ = nullptr;
  obs::Collector* obs_ = nullptr;
  const std::atomic<bool>* cancel_ = nullptr;

  std::vector<Item> items_;  ///< per-round item buffer, reused across rounds

  double host_total_sec_ = 0.0;
  double host_boundary_sec_ = 0.0;

  Cycle window_end_ = 0;
  EpochId global_epoch_ = 0;
  bool aborted_ = false;
  std::string abort_msg_;
  std::exception_ptr abort_error_;
  std::exception_ptr first_error_;
  bool ran_ = false;
  Cycle final_time_ = 0;
};

}  // namespace cico::sim

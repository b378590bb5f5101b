// Fault-injection behaviour of the simulator: per-seed determinism on the
// bundled apps (with fingerprints pinned across commits), survival across
// seeds, watchdog and retry-budget aborts (parked and inline retries),
// reliable prefetch replies, prefetch throttling, paranoid-mode audits, and
// the invariant that faults perturb timing -- never data values.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <tuple>

#include "apps/jacobi.hpp"
#include "apps/matmul.hpp"
#include "cico/fault/fault.hpp"
#include "cico/sim/machine.hpp"
#include "cico/sim/shared_array.hpp"

namespace cico::sim {
namespace {

SimConfig small_cfg(std::uint32_t nodes, const char* faults = nullptr) {
  SimConfig c;
  c.nodes = nodes;
  c.cache.size_bytes = 4096;
  c.cache.assoc = 4;
  c.cache.block_bytes = 32;
  if (faults != nullptr) c.faults = fault::FaultSpec::parse(faults);
  return c;
}

/// One observable fingerprint of a run: execution time, every stat
/// counter, messages on the wire, and the injector's own telemetry.
struct Fingerprint {
  Cycle time = 0;
  std::array<std::uint64_t, kStatCount> stats{};
  std::uint64_t msgs = 0;
  std::uint64_t drops = 0;
  std::uint64_t dups = 0;
  std::uint64_t delays = 0;
  std::uint64_t stalls = 0;

  bool operator==(const Fingerprint& o) const {
    return time == o.time && stats == o.stats && msgs == o.msgs &&
           drops == o.drops && dups == o.dups && delays == o.delays &&
           stalls == o.stalls;
  }
};

Fingerprint run_app(apps::App& app, const SimConfig& cfg) {
  Machine m(cfg);
  app.setup(m, apps::Variant::None);
  m.run([&](Proc& p) { app.body(p); });
  EXPECT_TRUE(app.verify());
  EXPECT_EQ(m.directory().check_invariants(), "");
  Fingerprint f;
  f.time = m.exec_time();
  for (std::size_t i = 0; i < kStatCount; ++i) {
    f.stats[i] = m.stats().total(static_cast<Stat>(i));
  }
  f.msgs = m.network().total_sent();
  if (const auto* inj = m.fault_injector()) {
    f.drops = inj->drops();
    f.dups = inj->dups();
    f.delays = inj->delays();
    f.stalls = inj->stalls();
  }
  return f;
}

constexpr const char* kMix =
    "drop=0.03,dup=0.01,delay=0.05:25,stall=0.02:100,retries=0,throttle=4";

Fingerprint run_matmul(const SimConfig& cfg) {
  apps::MatMulConfig mc;
  mc.n = 24;
  mc.prow = 4;
  mc.pcol = 2;
  apps::MatMul app(mc, /*seed=*/2);
  return run_app(app, cfg);
}

Fingerprint run_jacobi(const SimConfig& cfg) {
  apps::JacobiConfig jc;
  jc.n = 16;
  jc.steps = 2;
  jc.p = 4;
  apps::Jacobi app(jc, /*seed=*/2);
  return run_app(app, cfg);
}

// Faulted fingerprints pinned across commits, not only between two runs of
// one build: a refactor of the retry or protocol paths that moves a single
// retry, message or cycle fails here.  Stats are listed in Stat order.
const Fingerprint kMatMulPin{
    106537,
    {28800, 15552, 1320, 432, 144, 76, 23, 53, 4993, 455, 829, 0, 0,
     0,     0,     0,    0,   0,   16, 0,  0,  277619, 0, 55296, 0, 145,
     56,    145,   0,    0,   885, 0,  0,  0,  0,      0, 0,     0, 0},
    4993,
    145,
    56,
    235,
    1};

const Fingerprint kJacobiPin{
    43890,
    {2048, 1376, 384, 280, 64, 239, 149, 175, 2271, 276, 109, 0, 0,
     0,    0,    0,   0,   0,  48,  0,   0,   171715, 0, 2048, 0, 30,
     23,   30,   0,   0,   317, 0,  0,   0,   0,      0, 0,    0, 0},
    2271,
    30,
    23,
    96,
    5};

void expect_fingerprint(const Fingerprint& got, const Fingerprint& want) {
  EXPECT_EQ(got.time, want.time);
  for (std::size_t i = 0; i < kStatCount; ++i) {
    EXPECT_EQ(got.stats[i], want.stats[i]) << stat_name(static_cast<Stat>(i));
  }
  EXPECT_EQ(got.msgs, want.msgs);
  EXPECT_EQ(got.drops, want.drops);
  EXPECT_EQ(got.dups, want.dups);
  EXPECT_EQ(got.delays, want.delays);
  EXPECT_EQ(got.stalls, want.stalls);
}

TEST(FaultSimTest, SameSeedIsBitIdenticalOnMatMul) {
  SimConfig cfg = small_cfg(8, kMix);
  cfg.faults.seed = 42;
  cfg.audit_invariants = true;
  const Fingerprint a = run_matmul(cfg);
  const Fingerprint b = run_matmul(cfg);
  EXPECT_GT(a.drops, 0u) << "mix injected nothing; test is vacuous";
  EXPECT_TRUE(a == b);
  expect_fingerprint(a, kMatMulPin);
}

TEST(FaultSimTest, SameSeedIsBitIdenticalOnJacobi) {
  SimConfig cfg = small_cfg(16, kMix);
  cfg.faults.seed = 42;
  cfg.audit_invariants = true;
  const Fingerprint a = run_jacobi(cfg);
  const Fingerprint b = run_jacobi(cfg);
  EXPECT_GT(a.drops, 0u);
  EXPECT_TRUE(a == b);
  expect_fingerprint(a, kJacobiPin);
}

TEST(FaultSimTest, DifferentSeedsDifferButAllComplete) {
  // Survival across seeds: every run finishes, verifies, and passes the
  // directory invariants (run_app asserts all three).
  SimConfig cfg = small_cfg(16, kMix);
  cfg.audit_invariants = true;
  bool any_difference = false;
  Fingerprint prev;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    cfg.faults.seed = seed;
    const Fingerprint f = run_jacobi(cfg);
    if (seed > 1 && !(f == prev)) any_difference = true;
    prev = f;
  }
  EXPECT_TRUE(any_difference) << "five seeds produced identical runs";
}

TEST(FaultSimTest, TotalLossWithUnboundedRetriesTripsWatchdog) {
  // drop=1.0 + retries=0 is a livelock: the node re-issues forever and
  // virtual time never advances.  The watchdog must convert that into a
  // SimDeadlock instead of a hang.
  SimConfig cfg = small_cfg(2, "drop=1.0,retries=0");
  cfg.watchdog_rounds = 16;
  Machine m(cfg);
  const Addr a = m.heap().alloc(32, "A");
  try {
    m.run([&](Proc& p) {
      if (p.id() == 0) p.st(a, 8, 1);
      p.barrier();
    });
    FAIL() << "expected SimDeadlock";
  } catch (const SimDeadlock& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("n0=mem"), std::string::npos)
        << e.what();
  }
  EXPECT_GT(m.stats().total(Stat::WatchdogTrips), 0u);
}

TEST(FaultSimTest, ExhaustedRetryBudgetIsProtocolTimeout) {
  SimConfig cfg = small_cfg(1, "drop=1.0,retries=3");
  Machine m(cfg);
  const Addr a = m.heap().alloc(32, "A");
  try {
    m.run([&](Proc& p) { p.st(a, 8, 1); });
    FAIL() << "expected ProtocolTimeout";
  } catch (const ProtocolTimeout& e) {
    EXPECT_NE(std::string(e.what()).find("retry budget"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(m.stats().total(Stat::Retries), 3u);
}

/// Runs `body` on a fresh Machine that must abort with ProtocolTimeout;
/// returns the message and leaves the Retries total in `retries`.
std::string timeout_of(const SimConfig& cfg,
                       const std::function<void(Proc&, Addr)>& body,
                       std::uint64_t& retries) {
  Machine m(cfg);
  const Addr a = m.heap().alloc(64, "A");
  std::string what;
  try {
    m.run([&](Proc& p) { body(p, a); });
    ADD_FAILURE() << "expected ProtocolTimeout";
  } catch (const ProtocolTimeout& e) {
    what = e.what();
  }
  retries = m.stats().total(Stat::Retries);
  return what;
}

// Check-ins, post-stores and check-out ranges cannot park their node, so
// a lost message is retried inline; each exhausts its budget with its own
// message.  Only one message type is lost, so the access before lands.

TEST(FaultSimTest, LostCheckInExhaustsInlineBudget) {
  std::uint64_t retries = 0;
  const std::string what = timeout_of(
      small_cfg(2, "drop.directive=1.0,retries=3"),
      [](Proc& p, Addr a) {
        if (p.id() != 1) return;
        p.ld(a, 8, 1);
        p.check_in(a, 32);
      },
      retries);
  EXPECT_EQ(what,
            "node 1: check-in of block 128 lost 4 times; "
            "retry budget exhausted at t=2766");
  EXPECT_EQ(retries, 3u);
}

TEST(FaultSimTest, LostPostStoreExhaustsInlineBudget) {
  std::uint64_t retries = 0;
  const std::string what = timeout_of(
      small_cfg(2, "drop.writeback=1.0,retries=2"),
      [](Proc& p, Addr a) {
        if (p.id() != 1) return;
        p.st(a, 8, 1);
        p.post_store(a, 32);
      },
      retries);
  EXPECT_EQ(what,
            "node 1: post-store of block 128 lost 3 times; "
            "retry budget exhausted at t=1566");
  EXPECT_EQ(retries, 2u);
}

TEST(FaultSimTest, LostCheckOutReplyExhaustsCappedInlineBudget) {
  // retries=0 means unbounded, but an inline retry cannot park the node,
  // so it is capped at 64.  The request lands and the reply is lost.
  std::uint64_t retries = 0;
  const std::string what = timeout_of(
      small_cfg(2, "drop.data_reply=1.0,retries=0"),
      [](Proc& p, Addr a) {
        if (p.id() == 1) p.check_out_s(a, 64);
      },
      retries);
  EXPECT_EQ(what,
            "node 1: check-out of block 128 lost 65 times; "
            "retry budget exhausted at t=264710");
  EXPECT_EQ(retries, 64u);
}

TEST(FaultSimTest, PrefetchRepliesAreNeverLost) {
  // Prefetches are never retried, so their reply leg is modelled reliable:
  // losing every prefetch reply still fills the cache.
  Machine m(small_cfg(2, "drop.prefetch_reply=1.0"));
  const Addr a = m.heap().alloc(32, "A");
  m.run([&](Proc& p) {
    if (p.id() != 1) return;
    p.prefetch_s(a, 32);
    p.compute(1000);
    p.ld(a, 8, 1);
  });
  EXPECT_EQ(m.stats().total(Stat::MsgDropped), 0u);
  EXPECT_EQ(m.stats().total(Stat::PrefetchUseful), 1u);
  EXPECT_EQ(m.stats().total(Stat::ReadMisses), 0u);
}

TEST(FaultSimTest, PrefetchEngineThrottlesAfterConsecutiveFailures) {
  // Three blocks held exclusive by node 0: node 1's prefetches are all
  // nacked.  With throttle=2 the engine mutes itself after the second
  // consecutive failure, so the third prefetch is not even issued.
  SimConfig cfg = small_cfg(2, "throttle=2");
  Machine m(cfg);
  const Addr a = m.heap().alloc(96, "A");
  m.run([&](Proc& p) {
    if (p.id() == 0) {
      for (int i = 0; i < 3; ++i) p.st(a + 32 * i, 8, 1);
    }
    p.barrier();
    if (p.id() == 1) {
      for (int i = 0; i < 3; ++i) p.prefetch_s(a + 32 * i, 32);
      p.compute(1000);
    }
    p.barrier();
  });
  EXPECT_EQ(m.stats().total(Stat::PrefetchDropped), 2u);
  EXPECT_EQ(m.stats().total(Stat::PrefetchThrottled), 1u);
}

TEST(FaultSimTest, ParanoidModePassesOnCleanRun) {
  SimConfig cfg = small_cfg(4);
  cfg.audit_invariants = true;
  Machine m(cfg);
  SharedArray<double> a(m, "A", 64);
  m.run([&](Proc& p) {
    for (std::size_t i = p.id(); i < 64; i += 4) a.st(p, i, 1.0, 1);
    p.barrier();
    for (std::size_t i = 0; i < 64; i += 8) (void)a.ld(p, i, 2);
    p.barrier();
  });
  EXPECT_EQ(m.directory().check_invariants(), "");
}

TEST(FaultSimTest, FaultsPerturbTimingNeverData) {
  // Data values are computed by real host code; injected faults may only
  // change timing and statistics.  Node 0 produces, node 1 consumes.
  SimConfig cfg = small_cfg(2, "drop=0.2,dup=0.1,retries=0");
  cfg.faults.seed = 9;
  cfg.audit_invariants = true;
  Machine m(cfg);
  SharedArray<double> a(m, "A", 32);
  SharedArray<double> b(m, "B", 32);
  m.run([&](Proc& p) {
    if (p.id() == 0) {
      for (std::size_t i = 0; i < 32; ++i) {
        a.st(p, i, 3.0 * static_cast<double>(i), 1);
      }
    }
    p.barrier();
    if (p.id() == 1) {
      for (std::size_t i = 0; i < 32; ++i) {
        b.st(p, i, a.ld(p, i, 2) + 1.0, 3);
      }
    }
  });
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(b.raw(i), 3.0 * static_cast<double>(i) + 1.0);
  }
  EXPECT_GT(m.stats().total(Stat::MsgDropped), 0u);
  EXPECT_EQ(m.stats().total(Stat::MsgDropped), m.fault_injector()->drops());
  EXPECT_GT(m.stats().total(Stat::Retries), 0u);
}

TEST(FaultSimTest, DisabledFaultsLeaveNoInjector) {
  Machine m(small_cfg(1));
  EXPECT_EQ(m.fault_injector(), nullptr);
}

}  // namespace
}  // namespace cico::sim

// Oracles for running simulated nodes as fibers on one host thread: the
// fixed fiber order makes even racy host values repeat, exceptions and
// aborts unwind every node's stack before run() rethrows, a node may
// recurse deeply on its own stack, and Machines on different host threads
// (the daemon's shape) do not interfere.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/jacobi.hpp"
#include "apps/matmul.hpp"
#include "cico/lang/interp.hpp"
#include "cico/lang/parser.hpp"
#include "cico/sim/machine.hpp"
#include "cico/sim/shared_array.hpp"

namespace cico::sim {
namespace {

SimConfig small_cfg(std::uint32_t nodes) {
  SimConfig c;
  c.nodes = nodes;
  c.cache.size_bytes = 4096;
  c.cache.assoc = 4;
  c.cache.block_bytes = 32;
  return c;
}

/// Per-node stat rows plus the run totals: everything deterministic the
/// app runs below expose.
struct Fingerprint {
  Cycle time = 0;
  EpochId epochs = 0;
  std::vector<std::array<std::uint64_t, kStatCount>> stats;
  std::uint64_t msgs = 0;

  bool operator==(const Fingerprint& o) const = default;
};

Fingerprint run_matmul() {
  const SimConfig cfg = small_cfg(8);
  Machine m(cfg);
  apps::MatMulConfig c;
  c.n = 24;
  c.prow = 4;
  c.pcol = 2;
  apps::MatMul app(c, /*seed=*/2);
  app.setup(m, apps::Variant::None);
  m.run([&](Proc& p) { app.body(p); });
  EXPECT_TRUE(app.verify());
  Fingerprint f;
  f.time = m.exec_time();
  f.epochs = m.epochs_completed();
  f.stats.resize(cfg.nodes);
  for (NodeId n = 0; n < cfg.nodes; ++n) {
    for (std::size_t i = 0; i < kStatCount; ++i) {
      f.stats[n][i] = m.stats().node(n, static_cast<Stat>(i));
    }
  }
  f.msgs = m.network().total_sent();
  return f;
}

TEST(FiberTest, RacyHostValuesRepeatAcrossRuns) {
  // Unsynchronized read-modify-writes of shared counters: every node loses
  // some of the others' updates.  Each miss parks a node mid-update, so the
  // final values depend on the interleaving -- which the fixed fiber order
  // makes a function of simulated state alone.
  constexpr std::size_t kCells = 4;
  auto run_once = [] {
    Machine m(small_cfg(4));
    SharedArray<std::uint64_t> cnt(m, "CNT", kCells);
    m.run([&](Proc& p) {
      for (int rep = 0; rep < 50; ++rep) {
        const std::size_t i = (p.id() + static_cast<std::size_t>(rep)) % kCells;
        const std::uint64_t v = cnt.ld(p, i, 1);
        p.compute(7 * (p.id() + 1));
        cnt.st(p, i, v + 1, 2);
      }
    });
    std::array<std::uint64_t, kCells> out{};
    for (std::size_t i = 0; i < kCells; ++i) out[i] = cnt.raw(i);
    return out;
  };
  const auto first = run_once();
  std::uint64_t total = 0;
  for (const std::uint64_t v : first) total += v;
  EXPECT_LT(total, 200u) << "no update was lost: the program did not race";
  for (int rep = 0; rep < 4; ++rep) EXPECT_EQ(run_once(), first);
}

/// Counts destructions, to prove a fiber's stack was unwound.
struct UnwindProbe {
  int* count;
  ~UnwindProbe() { ++*count; }
};

TEST(FiberTest, BodyExceptionWhileOthersWaitAtBarrierIsRethrown) {
  int unwound = 0;
  {
    Machine m(small_cfg(4));
    try {
      m.run([&](Proc& p) {
        const UnwindProbe probe{&unwound};
        if (p.id() == 2) {
          p.compute(50);
          throw std::runtime_error("node 2 failed");
        }
        p.barrier();
        p.barrier();
      });
      FAIL() << "run() returned normally";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "node 2 failed");
    }
    EXPECT_EQ(unwound, 4);
  }  // and the Machine destructs cleanly
}

TEST(FiberTest, AbortUnwindsEveryParkedFiber) {
  // Node 1 waits forever on a lock node 0 holds across a barrier: the
  // boundary phase aborts with SimDeadlock, and every parked body must
  // unwind on its own stack before run() rethrows.
  int unwound = 0;
  {
    Machine m(small_cfg(3));
    const Addr lk = m.heap().alloc(32, "L");
    EXPECT_THROW(m.run([&](Proc& p) {
                   const UnwindProbe probe{&unwound};
                   if (p.id() == 1) p.compute(10);
                   p.lock(lk);
                   p.barrier();
                   p.unlock(lk);
                 }),
                 SimDeadlock);
    EXPECT_EQ(unwound, 3);
  }
}

TEST(FiberTest, ZeroQuantumAbortsInsteadOfHanging) {
  // With a zero-cycle window no parked node is ever resumable again; the
  // scheduler must abort and unwind rather than spin or strand fibers.
  SimConfig cfg = small_cfg(2);
  cfg.quantum = 0;
  Machine m(cfg);
  EXPECT_THROW(m.run([](Proc& p) { p.compute(1); }), SimDeadlock);
}

TEST(FiberTest, DeeplyNestedMiniParRunsOnAFiber) {
  // Each nesting level costs the interpreter a few frames on the node's
  // fiber stack: this depth overflows a 64 KiB coroutine-sized stack, yet
  // still parses on the main thread of a sanitizer build.
  constexpr int kDepth = 1000;
  std::string src = "shared real A[4];\nparallel\n";
  for (int d = 0; d < kDepth; ++d) src += "if pid >= 0 then\n";
  src += "A[pid] = pid + 1;\n";
  for (int d = 0; d < kDepth; ++d) src += "fi\n";
  src += "end\n";
  const lang::Program prog = lang::parse(src);
  Machine m(small_cfg(4));
  lang::LoadedProgram lp(prog, m);
  m.run([&](Proc& p) { lp.run_node(p); });
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(lp.value("A", i), static_cast<double>(i + 1));
  }
}

TEST(FiberTest, MachinesOnTwoHostThreadsMatchSerial) {
  const Fingerprint serial = run_matmul();
  Fingerprint a;
  Fingerprint b;
  std::thread ta([&] { a = run_matmul(); });
  std::thread tb([&] { b = run_matmul(); });
  ta.join();
  tb.join();
  EXPECT_EQ(a, serial);
  EXPECT_EQ(b, serial);
}

// The boundary_rounds counter is deterministic and charged to node 0.
TEST(FiberTest, BoundaryRoundsCountedOnNodeZero) {
  const Fingerprint f = run_matmul();
  std::uint64_t rounds = 0;
  for (const auto& row : f.stats) {
    rounds += row[static_cast<std::size_t>(Stat::BoundaryRounds)];
  }
  EXPECT_GT(rounds, 0u);
  EXPECT_EQ(rounds, f.stats[0][static_cast<std::size_t>(Stat::BoundaryRounds)]);
}

TEST(FiberTest, HostTimingIsPopulated) {
  Machine m(small_cfg(16));  // Jacobi's 4 x 4 processor grid
  apps::JacobiConfig c;
  c.n = 16;
  c.steps = 2;
  c.p = 4;
  apps::Jacobi app(c, /*seed=*/2);
  app.setup(m, apps::Variant::None);
  m.run([&](Proc& p) { app.body(p); });
  EXPECT_GT(m.host_total_seconds(), 0.0);
  EXPECT_GT(m.host_boundary_seconds(), 0.0);
  EXPECT_LE(m.host_boundary_seconds(), m.host_total_seconds());
}

}  // namespace
}  // namespace cico::sim

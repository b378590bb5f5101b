// Per-application unit tests: configuration validation, result
// verification fidelity (the verifiers must actually catch corruption),
// and the documented hand-annotation behaviours.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/barnes.hpp"
#include "apps/jacobi.hpp"
#include "apps/matmul.hpp"
#include "apps/mp3d.hpp"
#include "apps/ocean.hpp"
#include "apps/runner.hpp"
#include "apps/tomcatv.hpp"
#include "cico/trace/trace.hpp"

namespace cico::apps {
namespace {

sim::SimConfig nodes(std::uint32_t n) {
  sim::SimConfig c;
  c.nodes = n;
  return c;
}

TEST(AppConfigTest, MatmulRejectsBadGrids) {
  MatMulConfig c;
  c.n = 33;  // not divisible by the 8x4 grid
  MatMul app(c, 1);
  sim::Machine m(nodes(32));
  EXPECT_THROW(app.setup(m, Variant::None), std::invalid_argument);

  MatMulConfig c2;
  c2.n = 32;
  MatMul app2(c2, 1);
  sim::Machine m2(nodes(16));  // nodes != prow*pcol
  EXPECT_THROW(app2.setup(m2, Variant::None), std::invalid_argument);
}

TEST(AppConfigTest, OceanRejectsOddOrTinyGrids) {
  {
    OceanConfig c;
    c.n = 65;
    Ocean app(c, 1);
    sim::Machine m(nodes(32));
    EXPECT_THROW(app.setup(m, Variant::None), std::invalid_argument);
  }
  {
    OceanConfig c;
    c.n = 16;  // < nodes
    Ocean app(c, 1);
    sim::Machine m(nodes(32));
    EXPECT_THROW(app.setup(m, Variant::None), std::invalid_argument);
  }
}

TEST(AppConfigTest, JacobiRequiresAlignedSquareGrid) {
  {
    JacobiConfig c;
    c.n = 30;  // not multiple of P
    c.p = 4;
    Jacobi app(c, 1);
    sim::Machine m(nodes(16));
    EXPECT_THROW(app.setup(m, Variant::None), std::invalid_argument);
  }
  {
    JacobiConfig c;
    c.n = 20;  // N/P == 5, not a multiple of 4 (block alignment)
    c.p = 4;
    Jacobi app(c, 1);
    sim::Machine m(nodes(16));
    EXPECT_THROW(app.setup(m, Variant::None), std::invalid_argument);
  }
  {
    JacobiConfig c;  // wrong node count
    Jacobi app(c, 1);
    sim::Machine m(nodes(8));
    EXPECT_THROW(app.setup(m, Variant::None), std::invalid_argument);
  }
}

TEST(AppVerifyTest, OceanVerifierCatchesCorruption) {
  OceanConfig c;
  c.n = 64;
  c.iters = 2;
  HarnessConfig hc;
  hc.sim.nodes = 32;
  // A healthy run verifies...
  {
    Harness h([c](std::uint64_t s) { return std::make_unique<Ocean>(c, s); },
              hc);
    EXPECT_TRUE(h.measure(Variant::None).verified);
  }
  // ...and the verifier is genuinely sensitive: an app whose body never
  // ran (its grid is still all zero) must fail against its reference.
  Ocean untouched(c, 12345);
  sim::Machine m3(hc.sim);
  untouched.setup(m3, Variant::None);
  EXPECT_FALSE(untouched.verify());
}

TEST(AppVerifyTest, RestructuredMatmulMatchesHostProduct) {
  MatMulConfig c;
  c.n = 32;
  c.racy = true;
  c.restructured = true;
  HarnessConfig hc;
  Harness h([c](std::uint64_t s) { return std::make_unique<MatMul>(c, s); },
            hc);
  const RunResult r = h.measure(Variant::None);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.stat(Stat::LockAcquires), 0u);  // the section 5 merge locks
}

// Every simulator mode that exercises the block-set and cache-tag scans:
// the app must verify, the directory must pass its invariant audit, and
// two runs must agree on time, epochs, every per-node counter, network
// totals and the trace text.
enum class SimMode { Plain, Paranoid, Trace };

struct ModeRun {
  bool verified = false;
  std::string invariants;
  Cycle time = 0;
  EpochId epochs = 0;
  std::vector<std::array<std::uint64_t, kStatCount>> stats;
  std::uint64_t msgs = 0;
  std::string trace_text;

  bool operator==(const ModeRun& o) const = default;
};

ModeRun run_in_mode(bool matmul, SimMode mode) {
  sim::SimConfig cfg = nodes(matmul ? 8 : 16);
  cfg.cache.size_bytes = 4096;
  cfg.cache.assoc = 4;
  cfg.cache.block_bytes = 32;
  cfg.audit_invariants = mode == SimMode::Paranoid;
  cfg.trace_mode = mode == SimMode::Trace;
  sim::Machine m(cfg);
  trace::TraceWriter w;
  if (cfg.trace_mode) m.set_trace_writer(&w);
  std::unique_ptr<App> a;
  if (matmul) {
    MatMulConfig c;
    c.n = 24;
    c.prow = 4;
    c.pcol = 2;
    a = std::make_unique<MatMul>(c, /*seed=*/2);
  } else {
    JacobiConfig c;
    c.n = 16;
    c.steps = 2;
    c.p = 4;
    a = std::make_unique<Jacobi>(c, /*seed=*/2);
  }
  a->setup(m, Variant::None);
  m.run([&](sim::Proc& p) { a->body(p); });

  ModeRun r;
  r.verified = a->verify();
  r.invariants = m.directory().check_invariants();
  r.time = m.exec_time();
  r.epochs = m.epochs_completed();
  r.stats.resize(cfg.nodes);
  for (NodeId n = 0; n < cfg.nodes; ++n) {
    for (std::size_t i = 0; i < kStatCount; ++i) {
      r.stats[n][i] = m.stats().node(n, static_cast<Stat>(i));
    }
  }
  r.msgs = m.network().total_sent();
  if (cfg.trace_mode) {
    std::ostringstream os;
    trace::save_text(w.take(), os);
    r.trace_text = os.str();
  }
  return r;
}

TEST(AppModeTest, MatmulAndJacobiVerifyAndRepeatInEveryMode) {
  for (const bool matmul : {true, false}) {
    for (const SimMode mode :
         {SimMode::Plain, SimMode::Paranoid, SimMode::Trace}) {
      SCOPED_TRACE(std::string(matmul ? "matmul" : "jacobi") + " mode " +
                   std::to_string(static_cast<int>(mode)));
      const ModeRun first = run_in_mode(matmul, mode);
      EXPECT_TRUE(first.verified);
      EXPECT_EQ(first.invariants, "");
      EXPECT_EQ(first.trace_text.empty(), mode != SimMode::Trace);
      EXPECT_EQ(run_in_mode(matmul, mode), first);
    }
  }
}

TEST(AppHandTest, MatmulHandHasRedundantCheckouts) {
  // Section 6: the hand version carries "a few unnecessary annotations" --
  // explicit check_out_S on reads the protocol would have serviced anyway.
  MatMulConfig c;
  c.n = 32;
  HarnessConfig hc;
  Harness h([c](std::uint64_t s) { return std::make_unique<MatMul>(c, s); },
            hc);
  const RunResult hand = h.measure(Variant::Hand);
  EXPECT_GT(hand.stat(Stat::CheckOutS), 0u);
  EXPECT_TRUE(hand.verified);
}

TEST(AppHandTest, HandPrefetchIsLateInMatmul) {
  // "In the hand-annotated version ... the prefetch annotations were
  // inappropriately placed": issued right before use, they complete late.
  MatMulConfig c;
  c.n = 32;
  HarnessConfig hc;
  Harness h([c](std::uint64_t s) { return std::make_unique<MatMul>(c, s); },
            hc);
  const RunResult pf = h.measure(Variant::HandPf);
  EXPECT_GT(pf.stat(Stat::PrefetchIssued), 0u);
  EXPECT_GT(pf.stat(Stat::PrefetchLate), 0u);
}

TEST(AppHandTest, Mp3dHandChecksInTooEarly) {
  Mp3dConfig c;
  c.molecules = 512;
  c.steps = 2;
  HarnessConfig hc;
  Harness h([c](std::uint64_t s) { return std::make_unique<Mp3d>(c, s); },
            hc);
  const RunResult none = h.measure(Variant::None);
  const RunResult hand = h.measure(Variant::Hand);
  // The premature check-ins force re-checkouts: hand does MORE read
  // misses than the unannotated run on its own molecule data.
  EXPECT_GT(hand.stat(Stat::ReadMisses), none.stat(Stat::ReadMisses));
}

TEST(AppHandTest, BarnesPrefetchRefusesIrregularRegions) {
  BarnesConfig c;
  c.bodies = 256;
  c.steps = 1;
  HarnessConfig hc;
  Harness h([c](std::uint64_t s) { return std::make_unique<Barnes>(c, s); },
            hc);
  sim::DirectivePlan plan =
      h.build_plan({.mode = cachier::Mode::Performance, .prefetch = true});
  const RunResult r = h.measure(Variant::CachierPf, &plan);
  // The tree and body-position regions are irregular; the only legal
  // prefetch targets are the (regular) velocity arrays.  The tree pool
  // alone spans ~2300 blocks and is touched every force epoch, so if the
  // planner prefetched it the count would be in the tens of thousands;
  // velocities bound it to a few hundred.
  EXPECT_LT(r.stat(Stat::PrefetchIssued), 1000u);
  EXPECT_TRUE(r.verified);
}

TEST(AppStatsTest, OceanEpochsMatchConfiguration) {
  OceanConfig c;
  c.n = 64;
  c.iters = 3;
  sim::Machine m(nodes(32));
  Ocean app(c, 7);
  app.setup(m, Variant::None);
  m.run([&](sim::Proc& p) { app.body(p); });
  // 1 init barrier + 2 per iteration.
  EXPECT_EQ(m.epochs_completed(), 1u + 2 * c.iters);
  EXPECT_TRUE(app.verify());
}

}  // namespace
}  // namespace cico::apps

// Paper gate for the cheap EXPERIMENTS.md tables: E2 (section 2.1 Jacobi
// cost model), E6 (section 5 restructuring), X1 (check-in vs. post-store)
// and X3 (annotation placement vs. cache capacity).  Simulated counts are
// deterministic, so every value EXPERIMENTS.md records is pinned exactly;
// a change to the protocol, the cost model or an app that moves one of
// them fails here instead of silently changing a printed table.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "apps/jacobi.hpp"
#include "apps/matmul.hpp"
#include "apps/runner.hpp"
#include "cico/sim/shared_array.hpp"

namespace {

using namespace cico;
using namespace cico::apps;

std::string fixed3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

// --- E2: section 2.1 Jacobi communication-cost model ----------------------
//
// P^2 = 16 processors, b = 4 doubles per 32-byte block, T = 4 steps.  The
// paper's formulas count checked-out blocks: cache-fit 2NPT(1+b)/b + N^2/b,
// column-fit (2NP(1+b)/b + N^2/b)*T.  The app double-buffers, so the
// cache-fit one-time term doubles to 2N^2/b ("adjusted model").

struct CostRow {
  std::size_t n;
  bool cache_fits;
  double paper_model;
  double adjusted_model;
};

const CostRow kCost[] = {
    {32, true, 1536, 1792},  {64, true, 3584, 4608},
    {96, true, 6144, 8448},  {32, false, 2304, 2304},
    {64, false, 6656, 6656}, {96, false, 13056, 13056},
};

TEST(PaperTest, E2JacobiCheckoutsMatchTheCostModel) {
  const std::uint32_t P = 4;
  const std::size_t steps = 4;
  const double Pd = P, T = steps, b = 4.0;
  for (const CostRow& row : kCost) {
    const double N = static_cast<double>(row.n);
    const double paper =
        row.cache_fits ? 2.0 * N * Pd * T * (1.0 + b) / b + N * N / b
                       : (2.0 * N * Pd * (1.0 + b) / b + N * N / b) * T;
    const double adjusted = row.cache_fits ? paper + N * N / b : paper;
    SCOPED_TRACE("N=" + std::to_string(row.n) +
                 (row.cache_fits ? " cache-fit" : " column-fit"));
    EXPECT_EQ(paper, row.paper_model);
    EXPECT_EQ(adjusted, row.adjusted_model);

    JacobiConfig jc;
    jc.n = row.n;
    jc.steps = steps;
    jc.p = P;
    jc.cache_fits = row.cache_fits;
    HarnessConfig hc;
    hc.sim.nodes = P * P;
    Harness h([jc](std::uint64_t s) { return std::make_unique<Jacobi>(jc, s); },
              hc);
    const RunResult r = h.measure(Variant::Hand);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(static_cast<double>(r.stat(Stat::CheckOutX) +
                                  r.stat(Stat::CheckOutS)),
              row.adjusted_model);
  }
}

// --- E6: section 5 restructuring of the racy matrix multiply --------------
//
// The original program runs under Cachier's Performance plan (one
// check_out_X per racy update, ~N^3); the restructured one runs the
// section 5 listing's own annotations, whose checkouts are N^2*P/2
// elements exactly on the 8x4 grid (counted here in 4-double blocks).
// Races are what the sharing analysis flags in the trace.

struct RestructureRow {
  std::size_t n;
  bool restructured;
  std::uint64_t checkouts;
  std::size_t races;
  std::uint64_t traps;
  Cycle time;
};

const RestructureRow kRestructure[] = {
    {32, false, 32672, 726, 11590, 513448},
    {32, true, 4096, 0, 0, 127200},
    {64, false, 262080, 3096, 25524, 1944811},
    {64, true, 16384, 0, 0, 516468},
};

TEST(PaperTest, E6RestructuringCutsCheckoutsToNSquaredPOverTwo) {
  for (const RestructureRow& row : kRestructure) {
    SCOPED_TRACE("N=" + std::to_string(row.n) +
                 (row.restructured ? " restructured" : " original"));
    MatMulConfig mc;
    mc.n = row.n;
    mc.racy = true;
    mc.restructured = row.restructured;
    HarnessConfig hc;
    hc.sim.nodes = 32;
    hc.trace_seed = 1;
    hc.measure_seed = 2;
    Harness h([mc](std::uint64_t s) { return std::make_unique<MatMul>(mc, s); },
              hc);
    const trace::Trace t = h.collect_trace();
    const cachier::SharingAnalyzer sa(t, hc.sim.cache);
    const cachier::PlanBuilder pb(t, hc.sim.cache);
    const sim::DirectivePlan plan =
        pb.build({.mode = cachier::Mode::Performance});
    const RunResult r =
        h.measure(row.restructured ? Variant::Hand : Variant::Cachier,
                  row.restructured ? nullptr : &plan);
    const std::uint64_t checkouts =
        r.stat(Stat::CheckOutX) + r.stat(Stat::CheckOutS);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(checkouts, row.checkouts);
    EXPECT_EQ(sa.races().size(), row.races);
    EXPECT_EQ(r.stat(Stat::Traps), row.traps);
    EXPECT_EQ(r.time, row.time);
    if (row.restructured) {
      // N^2 * P / 2 elements with P = 32 processors, checked out in
      // blocks of b = 4 doubles.
      EXPECT_EQ(checkouts, row.n * row.n * 32 / 2 / 4);
    }
  }
}

// --- X1: check-in vs. the KSR-1 post-store ---------------------------------
//
// One producer rewrites a 256-double table each epoch; `consumers` nodes
// read it.  Modes: unannotated, check_in after the writes, post_store
// after the writes.  32 nodes, 6 epochs.

struct BroadcastRun {
  Cycle time;
  std::uint64_t traps;
  std::uint64_t read_misses;
};

enum class Publish { None, CheckIn, PostStore };

BroadcastRun run_broadcast(Publish mode, std::uint32_t consumers) {
  sim::SimConfig cfg;
  cfg.nodes = 32;
  sim::Machine m(cfg);
  sim::SharedArray<double> t(m, "T", 256);
  m.run([&](sim::Proc& p) {
    for (int it = 0; it < 6; ++it) {
      if (p.id() == 0) {
        for (std::size_t i = 0; i < t.size(); ++i) {
          t.st(p, i, static_cast<double>(it), 1);
        }
        if (mode == Publish::CheckIn) p.check_in(t.base(), t.bytes());
        if (mode == Publish::PostStore) p.post_store(t.base(), t.bytes());
      }
      p.barrier();
      if (p.id() >= 1 && p.id() <= consumers) {
        double s = 0;
        for (std::size_t i = 0; i < t.size(); ++i) s += t.ld(p, i, 2);
        p.compute(static_cast<Cycle>(s) % 5 + 1);
      }
      p.barrier();
    }
  });
  return {m.exec_time(), m.stats().total(Stat::Traps),
          m.stats().total(Stat::ReadMisses)};
}

struct PostStoreRow {
  std::uint32_t consumers;
  const char* check_in_norm;
  const char* post_store_norm;
  std::uint64_t read_misses_none;  ///< check_in leaves them unchanged
  std::uint64_t read_misses_post_store;
};

const PostStoreRow kPostStore[] = {
    {1, "0.656", "0.503", 384, 64},
    {4, "0.925", "0.729", 1536, 256},
    {15, "1.009", "0.847", 5760, 960},
    {31, "1.018", "0.897", 11904, 1984},
};

TEST(PaperTest, X1PostStoreRemovesConsumerRefills) {
  for (const PostStoreRow& row : kPostStore) {
    SCOPED_TRACE("consumers=" + std::to_string(row.consumers));
    const BroadcastRun none = run_broadcast(Publish::None, row.consumers);
    const BroadcastRun ci = run_broadcast(Publish::CheckIn, row.consumers);
    const BroadcastRun ps = run_broadcast(Publish::PostStore, row.consumers);
    const auto norm = [&](const BroadcastRun& r) {
      return fixed3(static_cast<double>(r.time) /
                    static_cast<double>(none.time));
    };
    EXPECT_EQ(norm(ci), row.check_in_norm);
    EXPECT_EQ(norm(ps), row.post_store_norm);
    // Publishing removes the consumers' recalls; the producer's re-write
    // upgrades remain, so check_in and post_store trap equally.
    EXPECT_EQ(none.traps, 704u);
    EXPECT_EQ(ci.traps, 320u);
    EXPECT_EQ(ps.traps, 320u);
    EXPECT_EQ(none.read_misses, row.read_misses_none);
    EXPECT_EQ(ci.read_misses, row.read_misses_none);
    EXPECT_EQ(ps.read_misses, row.read_misses_post_store);
  }
}

// --- X3: section 2.1 placement vs. cache capacity --------------------------
//
// Hand-annotated Jacobi 64x64 (64 KB working set across both buffers) on
// one processor, 6 steps, with the paper's cache-fit and column-fit
// listings.  Below the working set the one-time checkout thrashes and the
// per-step placement wins; from 64 KB up the one-time checkout wins.

Cycle run_capacity(std::uint32_t cache_kb, bool cache_fits) {
  JacobiConfig jc;
  jc.n = 64;
  jc.steps = 6;
  jc.p = 1;
  jc.cache_fits = cache_fits;
  HarnessConfig hc;
  hc.sim.nodes = 1;
  hc.sim.cache.size_bytes = cache_kb << 10;
  Harness h([jc](std::uint64_t s) { return std::make_unique<Jacobi>(jc, s); },
            hc);
  const RunResult r = h.measure(Variant::Hand);
  EXPECT_TRUE(r.verified) << cache_kb << " KB";
  return r.time;
}

struct CapacityRow {
  std::uint32_t cache_kb;
  Cycle cache_fit;
  Cycle column_fit;
};

const CapacityRow kCapacity[] = {
    {8, 951184, 935312},   {16, 954256, 936848},  {32, 960400, 882920},
    {64, 648043, 792464},  {128, 495424, 794432}, {256, 495424, 794432},
};

TEST(PaperTest, X3PlacementCrossesOverAtTheWorkingSet) {
  for (const CapacityRow& row : kCapacity) {
    SCOPED_TRACE(std::to_string(row.cache_kb) + " KB");
    const Cycle fit = run_capacity(row.cache_kb, true);
    const Cycle col = run_capacity(row.cache_kb, false);
    EXPECT_EQ(fit, row.cache_fit);
    EXPECT_EQ(col, row.column_fit);
    EXPECT_EQ(fit <= col, row.cache_kb >= 64)
        << "the cache-fit placement must win exactly from 64 KB up";
  }
}

}  // namespace

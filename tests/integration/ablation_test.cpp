// Paper gate for the ablation tables of EXPERIMENTS.md: A1 (DRFS terms),
// A2 (single-epoch history), A3 (trace-time barrier flush) and A4
// (Programmer vs. Performance CICO).  The Fig. 6 workloads on the section 6
// machine are deterministic, so every printed value is pinned exactly,
// together with the cycle and directive counts behind it; A2 and A4 also
// assert the section 4.1 rationale, A1 and A3 the DESIGN.md section 8
// choices.  Each table is its own ctest entry (ablation_test_a<k>).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "fig6_workloads.hpp"

namespace {

using namespace cico;
using namespace cico::apps;

std::string fixed3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

/// One measured plan: its normalized time (as EXPERIMENTS.md prints it),
/// its cycles and the directive counts the ablations move.
struct Measured {
  const char* norm;
  Cycle time;
  std::uint64_t check_ins;
  std::uint64_t check_out_x;
  std::uint64_t check_out_s;
};

void expect_measured(const RunResult& r, const RunResult& none,
                     const Measured& want, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(fixed3(r.normalized_to(none)), want.norm);
  EXPECT_EQ(r.time, want.time);
  EXPECT_EQ(r.stat(Stat::CheckIns), want.check_ins);
  EXPECT_EQ(r.stat(Stat::CheckOutX), want.check_out_x);
  EXPECT_EQ(r.stat(Stat::CheckOutS), want.check_out_s);
}

AppFactory racy_matmul_factory() {
  MatMulConfig c;  // the section 4.4 racy decomposition
  c.n = 64;
  c.racy = true;
  return [c](std::uint64_t s) { return std::make_unique<MatMul>(c, s); };
}

// --- A1: DRFS-term ablation ----------------------------------------------
//
// (a) ignore_drfs drops the tight check-out/check-in around raced and
//     falsely-shared blocks; (b) fs-literal takes the paper's one-line
//     false-sharing definition without "requires a writer".  DRFS blocks
//     are checked in right after their use, so the check-in counts move.

struct DrfsRow {
  const char* app;
  AppFactory (*factory)();
  bool fs_literal;
  Cycle none_time;
  Measured full;
  Measured ablated;
};

const DrfsRow kDrfs[] = {
    {"racy matmul", racy_matmul_factory, false, 5227064,
     {"0.372", 1944811, 253533, 262080, 0},
     {"1.443", 7545056, 4064, 120733, 0}},
    {"mp3d", mp3d_factory, false, 1543346,
     {"0.364", 561311, 60724, 46449, 0},
     {"0.659", 1016369, 13447, 45069, 0}},
    {"barnes", barnes_factory, true, 4125660,
     {"0.846", 3491575, 53969, 768, 0},
     {"4.353", 17959976, 3727874, 2247, 0}},
};

TEST(AblationTest, A1DrfsTermsCarryTheRacyWins) {
  for (const DrfsRow& row : kDrfs) {
    SCOPED_TRACE(row.app);
    Harness h(row.factory(), fig6_config());
    const RunResult none = h.measure(Variant::None);
    EXPECT_EQ(none.time, row.none_time);
    const cachier::PlanOptions full{.mode = cachier::Mode::Performance};
    cachier::PlanOptions ablate = full;
    if (row.fs_literal) {
      ablate.sharing.fs_requires_write = false;
    } else {
      ablate.chooser.ignore_drfs = true;
    }
    const sim::DirectivePlan p_full = h.build_plan(full);
    const sim::DirectivePlan p_abl = h.build_plan(ablate);
    const RunResult with = h.measure(Variant::Cachier, &p_full);
    const RunResult without = h.measure(Variant::Cachier, &p_abl);
    expect_measured(with, none, row.full, "full Cachier");
    expect_measured(without, none, row.ablated, "ablated");
    EXPECT_GT(without.time, with.time)
        << "the ablation must give back Cachier's win";
  }
}

// --- A2: single-epoch history (section 4.1) --------------------------------
//
// Without SW_{i-1} / S_{i+1} every epoch re-checks-out and re-checks-in its
// whole working set: "helps to eliminate many unnecessary check-in,
// check-out pairs at epoch boundaries".

struct HistoryRow {
  const char* app;
  AppFactory (*factory)();
  Cycle none_time;
  Measured with_history;
  Measured without_history;
};

const HistoryRow kHistory[] = {
    {"ocean", ocean_factory, 762028,
     {"0.748", 569746, 21502, 1222, 0},
     {"0.863", 657428, 43160, 15236, 0}},
    {"tomcatv", tomcatv_factory, 3615494,
     {"0.964", 3486536, 33064, 0, 0},
     {"1.092", 3947128, 156456, 65536, 0}},
    {"matmul", matmul_factory, 1240946,
     {"0.951", 1180552, 9144, 2232, 0},
     {"0.959", 1189744, 36864, 2232, 0}},
};

TEST(AblationTest, A2HistoryRemovesEpochBoundaryPairs) {
  for (const HistoryRow& row : kHistory) {
    SCOPED_TRACE(row.app);
    Harness h(row.factory(), fig6_config());
    const RunResult none = h.measure(Variant::None);
    EXPECT_EQ(none.time, row.none_time);
    const sim::DirectivePlan with_hist = h.build_plan(
        {.mode = cachier::Mode::Performance, .use_history = true});
    const sim::DirectivePlan no_hist = h.build_plan(
        {.mode = cachier::Mode::Performance, .use_history = false});
    const RunResult rw = h.measure(Variant::Cachier, &with_hist);
    const RunResult rn = h.measure(Variant::Cachier, &no_hist);
    expect_measured(rw, none, row.with_history, "with history");
    expect_measured(rn, none, row.without_history, "without history");
    EXPECT_GT(rn.stat(Stat::CheckIns), rw.stat(Stat::CheckIns));
    EXPECT_GT(rn.time, rw.time);
  }
}

// --- A3: trace-time barrier flush (section 3.3) ----------------------------
//
// Only accesses that miss reach the trace, so without the flush re-used
// blocks never re-miss, later epochs look partly empty, and the plan
// recovers less.

struct FlushRow {
  const char* app;
  AppFactory (*factory)();
  std::size_t records_flush;
  std::size_t records_noflush;
  Cycle none_time;
  Measured flush;
  Measured noflush;
};

const FlushRow kFlush[] = {
    {"ocean", ocean_factory, 58448, 25246, 762028,
     {"0.748", 569746, 21502, 1222, 0},
     {"0.778", 592950, 21970, 1222, 0}},
    {"mp3d", mp3d_factory, 252168, 133097, 1543346,
     {"0.364", 561311, 60724, 46449, 0},
     {"0.391", 603049, 62702, 46332, 0}},
};

TEST(AblationTest, A3BarrierFlushCompletesTheTrace) {
  for (const FlushRow& row : kFlush) {
    SCOPED_TRACE(row.app);
    HarnessConfig noflush_cfg = fig6_config();
    noflush_cfg.flush_at_barriers = false;
    Harness h_flush(row.factory(), fig6_config());
    Harness h_noflush(row.factory(), noflush_cfg);
    const RunResult none = h_flush.measure(Variant::None);
    EXPECT_EQ(none.time, row.none_time);
    const std::size_t records_flush = h_flush.collect_trace().misses.size();
    const std::size_t records_noflush =
        h_noflush.collect_trace().misses.size();
    EXPECT_EQ(records_flush, row.records_flush);
    EXPECT_EQ(records_noflush, row.records_noflush);
    const sim::DirectivePlan p_f =
        h_flush.build_plan({.mode = cachier::Mode::Performance});
    const sim::DirectivePlan p_n =
        h_noflush.build_plan({.mode = cachier::Mode::Performance});
    const RunResult rf = h_flush.measure(Variant::Cachier, &p_f);
    const RunResult rn = h_noflush.measure(Variant::Cachier, &p_n);
    expect_measured(rf, none, row.flush, "flushed trace");
    expect_measured(rn, none, row.noflush, "unflushed trace");
    EXPECT_GT(records_flush, records_noflush);
    EXPECT_GT(rn.time, rf.time);
  }
}

// --- A4: Programmer vs. Performance CICO (section 4.1) ---------------------
//
// "Placing explicit check-out's for these cases reduces performance because
// of the overhead of the additional operation": Programmer CICO exposes
// every implicit check-out, Performance CICO keeps only profitable ones.

struct ModeRow {
  const char* app;
  AppFactory (*factory)();
  Cycle none_time;
  Measured performance;
  Measured programmer;
};

const ModeRow kMode[] = {
    {"matmul", matmul_factory, 1240946,
     {"0.951", 1180552, 9144, 2232, 0},
     {"1.132", 1404160, 35928, 8376, 27648}},
    {"ocean", ocean_factory, 762028,
     {"0.748", 569746, 21502, 1222, 0},
     {"0.866", 659724, 15002, 17836, 25272}},
    {"mp3d", mp3d_factory, 1543346,
     {"0.364", 561311, 60724, 46449, 0},
     {"0.474", 731354, 68489, 85444, 79378}},
};

TEST(AblationTest, A4ExplicitCheckoutsCostIssueOverhead) {
  for (const ModeRow& row : kMode) {
    SCOPED_TRACE(row.app);
    Harness h(row.factory(), fig6_config());
    const RunResult none = h.measure(Variant::None);
    EXPECT_EQ(none.time, row.none_time);
    const sim::DirectivePlan perf =
        h.build_plan({.mode = cachier::Mode::Performance});
    const sim::DirectivePlan prog =
        h.build_plan({.mode = cachier::Mode::Programmer});
    const RunResult rp = h.measure(Variant::Cachier, &perf);
    const RunResult rg = h.measure(Variant::Cachier, &prog);
    expect_measured(rp, none, row.performance, "performance");
    expect_measured(rg, none, row.programmer, "programmer");
    EXPECT_GT(rg.stat(Stat::CheckOutX) + rg.stat(Stat::CheckOutS),
              rp.stat(Stat::CheckOutX) + rp.stat(Stat::CheckOutS));
    EXPECT_GT(rg.time, rp.time);
  }
}

}  // namespace

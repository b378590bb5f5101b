// Determinism and schema contract of the obs layer: the JSON run report
// and the Chrome trace export must be byte-identical run to run, the report
// envelope must carry the pinned schema_version, and Json::parse(dump(x)) must round-trip
// byte-for-byte so consumers can rewrite reports losslessly.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "apps/jacobi.hpp"
#include "apps/matmul.hpp"
#include "cico/obs/collector.hpp"
#include "cico/obs/json.hpp"
#include "cico/obs/report.hpp"
#include "cico/sim/machine.hpp"

namespace cico::obs {
namespace {

enum class AppKind { MatMul, Jacobi };

// Small caches so the apps actually miss.
sim::SimConfig report_cfg(AppKind app) {
  sim::SimConfig c;
  c.nodes = app == AppKind::MatMul ? 8 : 16;
  c.cache.size_bytes = 4096;
  c.cache.assoc = 4;
  c.cache.block_bytes = 32;
  return c;
}

std::unique_ptr<apps::App> make_app(AppKind app) {
  if (app == AppKind::MatMul) {
    apps::MatMulConfig c;
    c.n = 24;
    c.prow = 4;
    c.pcol = 2;
    return std::make_unique<apps::MatMul>(c, /*seed=*/2);
  }
  apps::JacobiConfig c;
  c.n = 16;
  c.steps = 2;
  c.p = 4;
  return std::make_unique<apps::Jacobi>(c, /*seed=*/2);
}

struct RunArtifacts {
  std::string report;  ///< dumped make_report envelope
  std::string events;  ///< Chrome trace-event JSON
};

RunArtifacts run_once(AppKind app) {
  const sim::SimConfig cfg = report_cfg(app);
  sim::Machine m(cfg);
  Collector col;
  col.set_events_enabled(true);
  m.set_observer(&col);
  std::unique_ptr<apps::App> a = make_app(app);
  a->setup(m, apps::Variant::None);
  m.run([&](sim::Proc& p) { a->body(p); });
  EXPECT_TRUE(a->verify());

  std::vector<Json> runs;
  runs.push_back(run_json("run", m.exec_time(), m.epochs_completed(),
                          m.stats(), m.network(), col));
  const Json rep =
      make_report("run", config_json(cfg, "dir1sw", ""), std::move(runs));

  RunArtifacts out;
  out.report = rep.dump_string();
  std::ostringstream ev;
  col.write_chrome_trace(ev);
  out.events = ev.str();
  return out;
}

class ReportEquiv : public ::testing::TestWithParam<AppKind> {};

TEST_P(ReportEquiv, ReportBytesIdenticalAcrossRuns) {
  const RunArtifacts first = run_once(GetParam());
  ASSERT_FALSE(first.report.empty());
  for (int rep = 1; rep <= 2; ++rep) {
    const RunArtifacts again = run_once(GetParam());
    EXPECT_EQ(again.report, first.report) << "repeat " << rep;
    EXPECT_EQ(again.events, first.events) << "repeat " << rep;
  }
}

TEST_P(ReportEquiv, ReportParsesAndRoundTripsByteForByte) {
  // The epoch rows are pre-rendered text; re-dumping the parsed tree
  // proves that text is in the canonical layout.
  const RunArtifacts art = run_once(GetParam());
  const Json back = Json::parse(art.report);
  EXPECT_EQ(back.dump_string(), art.report);
  // The event export is also well-formed JSON.
  EXPECT_NO_THROW((void)Json::parse(art.events));
}

TEST_P(ReportEquiv, RenderedEpochSeriesMatchesCollectorRows) {
  // The rendered series is write-only, so read it back through the dump
  // and check every row against the collector that produced it.
  const sim::SimConfig cfg = report_cfg(GetParam());
  sim::Machine m(cfg);
  Collector col;
  m.set_observer(&col);
  std::unique_ptr<apps::App> a = make_app(GetParam());
  a->setup(m, apps::Variant::None);
  m.run([&](sim::Proc& p) { a->body(p); });

  const Json run = Json::parse(
      run_json("run", m.exec_time(), m.epochs_completed(), m.stats(),
               m.network(), col)
          .dump_string());
  const Json& series = *run.find("epoch_series");
  const std::vector<EpochRow>& rows = col.epochs();
  ASSERT_EQ(series.size(), rows.size());
  ASSERT_EQ(rows.size(), m.epochs_completed() + 1);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Json& e = series.at(i);
    EXPECT_EQ(e.find("epoch")->as_u64(), rows[i].epoch) << i;
    EXPECT_EQ(e.find("end_vt")->as_u64(), rows[i].end_vt) << i;
    EXPECT_EQ(e.find("misses")->as_u64(), rows[i].misses) << i;
    EXPECT_EQ(e.find("traps")->as_u64(), rows[i].traps) << i;
    EXPECT_EQ(e.find("messages")->as_u64(), rows[i].messages) << i;
    EXPECT_EQ(e.find("stall_cycles")->as_u64(), rows[i].stall_cycles) << i;
    const Json& hot = *e.find("hot_blocks");
    ASSERT_EQ(hot.size(), rows[i].hot_blocks.size()) << i;
    EXPECT_LE(hot.size(), col.top_k());
    for (std::size_t k = 0; k < hot.size(); ++k) {
      EXPECT_EQ(hot.at(k).find("block")->as_u64(),
                rows[i].hot_blocks[k].first);
      EXPECT_EQ(hot.at(k).find("traps")->as_u64(),
                rows[i].hot_blocks[k].second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, ReportEquiv,
                         ::testing::Values(AppKind::MatMul, AppKind::Jacobi),
                         [](const auto& info) {
                           return info.param == AppKind::MatMul ? "matmul"
                                                                : "jacobi";
                         });

TEST(ReportSchema, EnvelopeCarriesPinnedVersionAndSections) {
  const RunArtifacts art = run_once(AppKind::MatMul);
  const Json rep = Json::parse(art.report);
  ASSERT_NE(rep.find("schema_version"), nullptr);
  EXPECT_EQ(rep.find("schema_version")->as_u64(), kReportSchemaVersion);
  ASSERT_NE(rep.find("command"), nullptr);
  EXPECT_EQ(rep.find("command")->as_string(), "run");
  ASSERT_NE(rep.find("config"), nullptr);
  ASSERT_NE(rep.find("runs"), nullptr);
  ASSERT_EQ(rep.find("runs")->size(), 1u);
  const Json& run = rep.find("runs")->at(0);
  for (const char* key : {"exec_time", "epochs", "totals", "per_node",
                          "cost_breakdown", "epoch_series", "hot_blocks"}) {
    EXPECT_NE(run.find(key), nullptr) << "missing run section: " << key;
  }
}

TEST(ReportSchema, DirectiveTablePartitionsDirectiveCycles) {
  // Schema v2: runs carry a per-directive {count, cycles} table whose
  // check-out/check-in/post-store cycles partition DirectiveCycles exactly
  // (prefetch issue is asynchronous and deliberately outside the sum).
  const sim::SimConfig cfg = report_cfg(AppKind::MatMul);
  sim::Machine m(cfg);
  Collector col;
  m.set_observer(&col);
  std::unique_ptr<apps::App> a = make_app(AppKind::MatMul);
  a->setup(m, apps::Variant::Hand);  // hand CICO => nonzero directives
  m.run([&](sim::Proc& p) { a->body(p); });
  EXPECT_TRUE(a->verify());

  std::vector<Json> runs;
  runs.push_back(run_json("run", m.exec_time(), m.epochs_completed(),
                          m.stats(), m.network(), col));
  const Json rep =
      make_report("run", config_json(cfg, "dir1sw", ""), std::move(runs));
  const Json& run = rep.find("runs")->at(0);
  const Json* dir = run.find("directives");
  ASSERT_NE(dir, nullptr);
  std::uint64_t partition = 0;
  for (const char* kind : {"check_out_x", "check_out_s", "check_in",
                           "prefetch_x", "prefetch_s", "post_store"}) {
    const Json* entry = dir->find(kind);
    ASSERT_NE(entry, nullptr) << kind;
    ASSERT_NE(entry->find("count"), nullptr) << kind;
    ASSERT_NE(entry->find("cycles"), nullptr) << kind;
    if (std::string(kind).rfind("prefetch", 0) != 0) {
      partition += entry->find("cycles")->as_u64();
    }
  }
  const Stats& s = m.stats();
  EXPECT_GT(dir->find("check_in")->find("count")->as_u64(), 0u);
  EXPECT_EQ(dir->find("check_in")->find("count")->as_u64(),
            s.total(Stat::CheckIns));
  EXPECT_EQ(dir->find("check_out_x")->find("count")->as_u64(),
            s.total(Stat::CheckOutX));
  EXPECT_EQ(partition, s.total(Stat::DirectiveCycles));
  EXPECT_EQ(partition,
            run.find("cost_breakdown")->find("directive_cycles")->as_u64());
}

TEST(ReportSchema, ConfigExcludesHostTiming) {
  // Host wall-clock leaking into the report would make equal runs compare
  // unequal.
  const RunArtifacts a = run_once(AppKind::MatMul);
  EXPECT_EQ(a.report.find("wall"), std::string::npos);
}

TEST(ReportSchema, EpochSeriesSumsToRunTotals) {
  const sim::SimConfig cfg = report_cfg(AppKind::Jacobi);
  sim::Machine m(cfg);
  Collector col;
  m.set_observer(&col);
  std::unique_ptr<apps::App> a = make_app(AppKind::Jacobi);
  a->setup(m, apps::Variant::None);
  m.run([&](sim::Proc& p) { a->body(p); });

  ASSERT_FALSE(col.epochs().empty());
  std::uint64_t misses = 0;
  std::uint64_t traps = 0;
  Cycle last_end = 0;
  for (const EpochRow& row : col.epochs()) {
    misses += row.misses;
    traps += row.traps;
    EXPECT_GE(row.end_vt, last_end);
    last_end = row.end_vt;
  }
  const Stats& s = m.stats();
  EXPECT_EQ(misses, s.total(Stat::ReadMisses) + s.total(Stat::WriteMisses) +
                        s.total(Stat::WriteFaults));
  EXPECT_EQ(traps, s.total(Stat::Traps));
  EXPECT_EQ(last_end, m.exec_time());
}

/// The epoch_series of a run_json over `col`, read back through its dump,
/// plus the whole report's bytes.
std::pair<Json, std::string> series_of(sim::Machine& m,
                                       const Collector& col) {
  std::vector<Json> runs;
  runs.push_back(run_json("run", m.exec_time(), m.epochs_completed(),
                          m.stats(), m.network(), col));
  const std::string report =
      make_report("run", config_json(m.config(), "dir1sw", ""),
                  std::move(runs))
          .dump_string();
  const Json back = Json::parse(report);
  return {*back.find("runs")->at(0).find("epoch_series"), report};
}

TEST(ReportSchema, BarrierFreeRunHasOneRowSeries) {
  // No barrier: the run's tail is its only epoch, one row long.
  sim::Machine m(report_cfg(AppKind::MatMul));
  Collector col;
  m.set_observer(&col);
  m.run([](sim::Proc&) {});
  ASSERT_EQ(m.epochs_completed(), 0u);
  const auto [series, report] = series_of(m, col);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series.at(0).find("epoch")->as_u64(), 0u);
  EXPECT_EQ(series.at(0).find("end_vt")->as_u64(), m.exec_time());
  EXPECT_EQ(series.at(0).find("hot_blocks")->size(), 0u);
  EXPECT_EQ(Json::parse(report).dump_string(), report);
}

TEST(ReportSchema, UnobservedRunHasEmptySeries) {
  // A collector that saw no run renders the series as a plain `[]`.
  sim::Machine m(report_cfg(AppKind::MatMul));
  const Collector col;
  const auto [series, report] = series_of(m, col);
  EXPECT_EQ(series.type(), Json::Type::Array);
  EXPECT_EQ(series.size(), 0u);
  EXPECT_NE(report.find("\"epoch_series\": [],\n"), std::string::npos);
  EXPECT_EQ(Json::parse(report).dump_string(), report);
}

TEST(ReportSchema, HotBlocksSortedByCountThenBlock) {
  const sim::SimConfig cfg = report_cfg(AppKind::MatMul);
  sim::Machine m(cfg);
  Collector col;
  m.set_observer(&col);
  std::unique_ptr<apps::App> a = make_app(AppKind::MatMul);
  a->setup(m, apps::Variant::None);
  m.run([&](sim::Proc& p) { a->body(p); });

  const auto hot = col.hot_blocks();
  ASSERT_FALSE(hot.empty());
  EXPECT_LE(hot.size(), col.top_k());
  for (std::size_t i = 1; i < hot.size(); ++i) {
    const bool ordered = hot[i - 1].second > hot[i].second ||
                         (hot[i - 1].second == hot[i].second &&
                          hot[i - 1].first < hot[i].first);
    EXPECT_TRUE(ordered) << "at " << i;
  }
}

TEST(JsonModel, ScalarsAndEscapes) {
  Json o = Json::object();
  o.set("s", Json::string("a\"b\\c\n\t"));
  o.set("n", Json::number(std::uint64_t{18446744073709551615ULL}));
  o.set("neg", Json::number(std::int64_t{-42}));
  o.set("b", Json::boolean(true));
  o.set("nul", Json());
  const std::string text = o.dump_string();
  const Json back = Json::parse(text);
  EXPECT_EQ(back.dump_string(), text);
  EXPECT_EQ(back.find("s")->as_string(), "a\"b\\c\n\t");
  EXPECT_EQ(back.find("n")->as_u64(), 18446744073709551615ULL);
}

TEST(JsonModel, RenderedArrayDumpsLikePlainArrayAtAnyDepth) {
  const auto element = [](int i) {
    Json e = Json::object();
    e.set("i", Json::number(std::uint64_t(i)));
    Json inner = Json::array();
    for (int k = 0; k < i; ++k) inner.push_back(Json::string("s\n" + std::to_string(k)));
    e.set("inner", std::move(inner));
    e.set("empty", Json::object());
    return e;
  };
  for (int n : {0, 1, 3}) {
    Json plain = Json::array();
    Json rendered = Json::rendered_array();
    for (int i = 0; i < n; ++i) {
      plain.push_back(element(i));
      rendered.push_back(element(i));
    }
    EXPECT_EQ(rendered.type(), Json::Type::Rendered);
    EXPECT_EQ(rendered.dump_string(), plain.dump_string()) << n;
    // Nested two levels down, as a report's epoch_series sits deeper still.
    Json a = Json::object();
    Json b = Json::object();
    a.set("x", std::move(plain));
    b.set("x", std::move(rendered));
    Json wa = Json::array();
    Json wb = Json::array();
    wa.push_back(std::move(a));
    wb.push_back(std::move(b));
    EXPECT_EQ(wb.dump_string(), wa.dump_string()) << n;
    EXPECT_EQ(Json::parse(wb.dump_string()).dump_string(), wb.dump_string());
  }
}

TEST(JsonModel, ParseErrorsCarryPosition) {
  try {
    (void)Json::parse("{\n  \"a\": ]\n}");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)Json::parse("{} trailing"), std::runtime_error);
}

}  // namespace
}  // namespace cico::obs

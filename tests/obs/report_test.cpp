// Determinism and schema contract of the obs layer: the JSON run report
// and the Chrome trace export must be byte-identical run to run, the report
// envelope must carry the pinned schema_version, and Json::parse(dump(x)) must round-trip
// byte-for-byte so consumers can rewrite reports losslessly.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "apps/jacobi.hpp"
#include "apps/matmul.hpp"
#include "cico/obs/collector.hpp"
#include "cico/obs/json.hpp"
#include "cico/obs/report.hpp"
#include "cico/obs/stream.hpp"
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

/// Same workload, but epoch rows stream through an EpochStreamWriter
/// sidecar instead of buffering in the Collector; returns the final
/// report bytes assembled via the splice resolver.
std::string run_streamed(AppKind app, const std::string& sidecar) {
  const sim::SimConfig cfg = report_cfg(app);
  sim::Machine m(cfg);
  Collector col;
  EpochStreamWriter writer(sidecar);
  col.set_epoch_sink(&writer);
  m.set_observer(&col);
  std::unique_ptr<apps::App> a = make_app(app);
  a->setup(m, apps::Variant::None);
  m.run([&](sim::Proc& p) { a->body(p); });

  EXPECT_TRUE(col.epochs().empty()) << "streaming must not buffer rows";
  EXPECT_GT(writer.rows(), 0u);
  EXPECT_EQ(writer.rows(), col.rows_flushed());

  std::vector<Json> runs;
  runs.push_back(run_json("run", m.exec_time(), m.epochs_completed(),
                          m.stats(), m.network(), col, "epochs0"));
  const Json rep =
      make_report("run", config_json(cfg, "dir1sw", ""), std::move(runs));
  std::ostringstream os;
  rep.dump(os, [&](std::ostream& s, std::string_view) {
    writer.splice_into(s);
  });
  return os.str();
}

class ReportEquiv : public ::testing::TestWithParam<AppKind> {};

TEST_P(ReportEquiv, StreamedEpochSeriesIsByteIdenticalToBuffered) {
  // O(1)-memory streaming must not change a single report byte (rows flush
  // at barriers, in canonical order).
  const RunArtifacts buffered = run_once(GetParam());
  EXPECT_EQ(run_streamed(GetParam(), ::testing::TempDir() + "epochs.rows"),
            buffered.report);
}

TEST_P(ReportEquiv, StreamWriterRemovesItsSidecar) {
  const std::string sidecar = ::testing::TempDir() + "epochs_tmp.rows";
  (void)run_streamed(GetParam(), sidecar);
  std::ifstream left(sidecar);
  EXPECT_FALSE(left.good()) << "sidecar not cleaned up: " << sidecar;
}

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
  const RunArtifacts art = run_once(GetParam());
  const Json back = Json::parse(art.report);
  EXPECT_EQ(back.dump_string(), art.report);
  // The event export is also well-formed JSON.
  EXPECT_NO_THROW((void)Json::parse(art.events));
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

// `pipeline` workload: the paper's Fig. 1 path, one program at a time.
//
// Per program: parse -> trace run -> annotate (srcann::annotate, unparse,
// reparse, self-lint) -> plan (PlanBuilder) and report (SharingAnalyzer)
// on that one trace -> archive the trace (save_v2 -> ObjectStore put/get
// -> load_v2) -> compare: unannotated, annotated-source and plan-driven
// runs with an obs::Collector each, then the compare report is built and
// dumped.  Oracles: the annotated and plan-driven runs must end with every
// race-free shared element equal to the unannotated run's and with equal
// shared load/store counts; the annotated output must lint without errors;
// the archived trace must come back byte-identical.
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>

#include "cico/analysis/typestate.hpp"
#include "cico/cachier/cachier.hpp"
#include "cico/common/hash.hpp"
#include "cico/lang/interp.hpp"
#include "cico/lang/parser.hpp"
#include "cico/lang/unparse.hpp"
#include "cico/obs/report.hpp"
#include "cico/sim/plan_io.hpp"
#include "cico/srcann/annotator.hpp"
#include "cico/store/format.hpp"
#include "cico/store/store.hpp"
#include "inputs.hpp"
#include "measure.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using namespace cico;

/// Draws of each bundled app per seed: more programs per pass average
/// out what one seed's draws do to the workload's throughput.
constexpr std::size_t kVariants = 3;

using Values = std::map<std::string, std::vector<double>>;

/// Arrays the trace shows a data race on; the value oracle skips them.
using Racy = std::set<std::string>;

struct Measured {
  Cycle cycles = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t rounds = 0;
  std::uint64_t traps = 0;
  std::uint64_t messages = 0;
  Values values;
  obs::Json json;
};

std::vector<std::string> shared_arrays(const lang::Program& p) {
  std::vector<std::string> out;
  for (const lang::StmtPtr& s : p.decls) {
    if (s->kind == lang::StmtKind::SharedDecl) out.push_back(s->name);
  }
  return out;
}

Values read_values(const lang::Program& p, const lang::LoadedProgram& lp) {
  Values v;
  for (const std::string& a : shared_arrays(p)) {
    const auto [d0, d1] = lp.array_dims(a);
    std::vector<double>& out = v[a];
    for (std::size_t i = 0; i < d0; ++i) {
      for (std::size_t j = 0; j < d1; ++j) out.push_back(lp.value(a, i, j));
    }
  }
  return v;
}

/// Runs the machine and books its host cost into the phase.
void timed_run(sim::Machine& m, lang::LoadedProgram& lp, Phase& ph) {
  const Rusage r0 = Rusage::now();
  m.run([&](sim::Proc& p) { lp.run_node(p); });
  const Rusage d = Rusage::now() - r0;
  const Stats& st = m.stats();
  ph.layer_sums["sim.boundary_ms"] += m.host_boundary_seconds() * 1e3;
  ph.layer_sums["sim.window_ms"] +=
      (m.host_total_seconds() - m.host_boundary_seconds()) * 1e3;
  ph.layer_sums["sim.user_ms"] += d.user_ms;
  ph.layer_sums["sim.sys_ms"] += d.sys_ms;
  ph.layer_sums["sim.ctx_switches"] += d.vol_cs + d.invol_cs;
  ph.layer_sums["sim.host_s"] += m.host_total_seconds();
  ph.layer_sums["sim.maccesses"] +=
      static_cast<double>(st.total(Stat::SharedLoads) +
                          st.total(Stat::SharedStores)) /
      1e6;
}

/// Equal race-free values and equal shared load/store counts.
bool same_results(const Measured& a, const Measured& b, const Racy& racy) {
  if (a.loads != b.loads || a.stores != b.stores) return false;
  for (const auto& [name, va] : a.values) {
    const auto it = b.values.find(name);
    if (it == b.values.end() || it->second.size() != va.size()) return false;
    for (std::size_t i = 0; i < va.size(); ++i) {
      if (va[i] != it->second[i] && racy.count(name) == 0) return false;
    }
  }
  return true;
}

struct Visit {
  bool seen = false;
  std::string digest;
  std::map<std::string, double> counts;
  double norm_time = 0;
  std::vector<double> op_ms;  ///< host time of every visit
};

class Pipeline final : public Workload {
 public:
  explicit Pipeline(Args a) : args_(std::move(a)) {}

  void setup() override {
    apps_ = scaled_apps(args_.seed, kVariants);
    store_dir_ = args_.work_dir + "/store";
    store_ = std::make_unique<store::ObjectStore>(store_dir_);
    visits_.assign(apps_.size(), Visit{});
    // Warm-up: one trace run per program validates the generated inputs
    // and lets allocator and page-cache state settle before timing.
    Phase unused;
    for (const AppProgram& app : apps_) {
      const lang::Program prog = lang::parse(app.source);
      sim::SimConfig cfg;
      cfg.nodes = app.nodes;
      cfg.trace_mode = true;
      sim::Machine m(cfg);
      trace::TraceWriter w;
      m.set_trace_writer(&w);
      lang::LoadedProgram lp(prog, m);
      timed_run(m, lp, unused);
    }
  }

  void teardown() override {
    store_.reset();
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
  }

  bool self_check(std::vector<std::string>& notes) override {
    // Annotate the first program, alter one assignment of the annotated
    // output, and demand that the value oracle reports the difference.
    const AppProgram& app = apps_.front();
    const lang::Program prog = lang::parse(app.source);
    sim::SimConfig cfg;
    cfg.nodes = app.nodes;
    Phase unused;
    Racy racy;
    lang::Program annotated = annotate(app, prog, unused, nullptr, &racy);
    if (!corrupt_one_assignment(annotated)) return false;
    const Measured base = measured_run(prog, cfg, nullptr, "baseline", unused);
    const Measured bad =
        measured_run(annotated, cfg, nullptr, "annotated", unused);
    const bool caught = !same_results(base, bad, racy);
    notes.push_back(std::string("oracle self-check (") + app.name +
                    ", one assignment altered): " +
                    (caught ? "caught" : "MISSED"));
    return caught;
  }

  Phase measure(double seconds) override {
    Phase ph;
    const auto t0 = Clock::now();
    const Rusage r0 = Rusage::now();
    Batcher batch(apps_.size());  // one batch = one pass over the programs
    while (ms_since(t0) < seconds * 1e3 || unvisited() > 0) {
      const std::size_t k = next_++ % apps_.size();
      Tracer::set_op(k + 1);
      const auto ts = Clock::now();
      ++ph.attempted;
      bool ok = false;
      try {
        Span op("bench.op");
        ok = run_one(k, ph);
      } catch (const std::exception& e) {
        std::cerr << "pipeline: " << apps_[k].name << ": " << e.what() << "\n";
      }
      if (ok) {
        ph.op_ms.push_back(ms_since(ts));
        visits_[k].op_ms.push_back(ph.op_ms.back());
      } else {
        ++ph.failed;
        ok_ = false;
      }
      batch.op_done(ph);
    }
    ph.wall_s = ms_since(t0) / 1e3;
    ph.ru = Rusage::now() - r0;
    ph.layer_values["sim.maccess_per_s"] =
        ph.layer_sums["sim.maccesses"] / std::max(1e-9, ph.layer_sums["sim.host_s"]);
    return ph;
  }

  std::map<std::string, double> counts() override {
    std::map<std::string, double> c;
    double log_sum = 0;
    for (const Visit& v : visits_) {
      for (const auto& [k, x] : v.counts) c[k] += x;
      log_sum += std::log(v.norm_time);
    }
    c["norm_time_geomean"] =
        std::exp(log_sum / static_cast<double>(visits_.size()));
    return c;
  }

  std::string digest() override {
    common::ContentHasher h;
    for (const Visit& v : visits_) h << v.digest;
    return h.hex();
  }

  bool correct() override { return ok_; }

  // One caller, one program at a time: the simulator's node threads hand
  // off through condition variables, and across CPUs of a shared virtual
  // machine those wake-ups made unpinned wall time vary threefold from
  // run to run.  On one CPU the handoffs are still paid (sys time,
  // context switches) but steadily.
  [[nodiscard]] unsigned cpus() const override { return 1; }

  void describe(const Phase& p, std::vector<std::string>& out) override {
    const double n = static_cast<double>(p.op_ms.size());
    std::ostringstream os;
    os << "annotate_per_s " << n / (p.layer_sums.at("stage.annotate_ms") / 1e3)
       << " 1/s (" << n
       << " programs; parse, trace run, annotate, unparse, self-lint)\n"
       << "compare_per_s " << n / (p.layer_sums.at("stage.compare_ms") / 1e3)
       << " 1/s (three checked runs plus the report)\n"
       << "sim_maccess_per_s "
       << p.layer_sums.at("sim.maccesses") / p.layer_sums.at("sim.host_s")
       << " M/s (shared loads + stores per host second in Machine::run)\n"
       << "cpu_ms_per_program " << (p.ru.user_ms + p.ru.sys_ms) / n << " ms\n"
       << "norm_time_geomean " << counts().at("norm_time_geomean")
       << " ratio (simulated; annotated / unannotated cycles)";
    out.push_back(os.str());
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      std::ostringstream row;
      row << "  program " << apps_[i].name
          << ": norm_time=" << visits_[i].norm_time
          << " op_ms_p50=" << percentile(visits_[i].op_ms, 0.5);
      out.push_back(row.str());
    }
  }

 private:
  /// Trace run + srcann::annotate + unparse + reparse + self-lint; returns
  /// the reparsed annotated program.  Optionally hands back the trace-side
  /// results the rest of the pipeline consumes.
  struct TraceSide {
    trace::Trace trace;
    std::string text;
    std::size_t directives = 0;
    std::string report;
    sim::DirectivePlan plan;
    bool lint_ok = false;
  };

  lang::Program annotate(const AppProgram& app, const lang::Program& prog,
                         Phase& ph, TraceSide* side, Racy* racy) {
    sim::SimConfig cfg;
    cfg.nodes = app.nodes;
    cfg.trace_mode = true;
    sim::Machine m(cfg);
    trace::TraceWriter w;
    m.set_trace_writer(&w);
    lang::LoadedProgram lp(prog, m);
    w.set_labels(m.heap().trace_labels());
    {
      Span s("sim.trace_run");
      timed_run(m, lp, ph);
    }
    trace::Trace t = w.take();
    srcann::AnnotateResult res;
    {
      Span s("srcann.annotate");
      res = srcann::annotate(prog, t, lp, cfg.cache,
                             {.mode = cachier::Mode::Performance});
    }
    std::string text;
    {
      Span s("lang.unparse");
      text = lang::unparse(res.program);
    }
    lang::Program annotated;
    {
      Span s("lang.parse");
      annotated = lang::parse(text);
    }
    analysis::LintResult lint;
    {
      Span s("analysis.lint");
      lint = analysis::lint(annotated);
    }
    // The trace's data races, for the value oracle: an array with a race
    // ends with values that depend on host scheduling.  (Races are found
    // at cache-block first touch, so a racy array may show only some of
    // its raced elements; the oracle skips the whole array.)
    std::string report;
    {
      Span s("cachier.sharing");
      const cachier::SharingAnalyzer sa(t, cfg.cache);
      report = sa.report(t, m.pcs());
      for (const cachier::RaceSite& r : sa.races()) {
        for (const std::string& a : shared_arrays(prog)) {
          const auto [d0, d1] = lp.array_dims(a);
          const Addr base = lp.array_base(a);
          if (r.addr >= base && r.addr < base + d0 * d1 * sizeof(double)) {
            racy->insert(a);
          }
        }
      }
    }
    if (side != nullptr) {
      side->text = std::move(text);
      side->directives = res.inserted;
      side->lint_ok = lint.errors() == 0;
      {
        Span s("cachier.plan_build");
        const cachier::PlanBuilder pb(t, cfg.cache);
        side->plan = pb.build({.mode = cachier::Mode::Performance});
      }
      side->report = std::move(report);
      side->trace = std::move(t);
    }
    return annotated;
  }

  Measured measured_run(const lang::Program& prog, const sim::SimConfig& cfg,
                        const sim::DirectivePlan* plan, const char* name,
                        Phase& ph) {
    sim::Machine m(cfg);
    lang::LoadedProgram lp(prog, m);
    if (plan != nullptr) m.set_plan(plan);
    obs::Collector col;
    m.set_observer(&col);
    {
      Span s("sim.measure_run");
      timed_run(m, lp, ph);
    }
    Measured out;
    out.cycles = m.exec_time();
    out.loads = m.stats().total(Stat::SharedLoads);
    out.stores = m.stats().total(Stat::SharedStores);
    out.values = read_values(prog, lp);
    {
      Span s("obs.report");
      out.json = obs::run_json(name, m.exec_time(), m.epochs_completed(),
                               m.stats(), m.network(), col);
    }
    out.rounds = m.stats().total(Stat::BoundaryRounds);
    out.traps = m.stats().total(Stat::Traps);
    out.messages = m.network().total_sent();
    return out;
  }

  bool run_one(std::size_t k, Phase& ph) {
    const AppProgram& app = apps_[k];
    bool ok = true;
    const auto check = [&](bool cond, const char* oracle) {
      if (!cond) {
        std::cerr << "pipeline: " << app.name << ": " << oracle << " failed\n";
        ok = false;
      }
    };
    const auto t_annotate = Clock::now();
    lang::Program prog;
    {
      Span s("lang.parse");
      prog = lang::parse(app.source);
    }
    TraceSide side;
    Racy racy;
    const lang::Program annotated = annotate(app, prog, ph, &side, &racy);
    check(side.lint_ok, "self-lint");
    ph.layer_sums["stage.annotate_ms"] += ms_since(t_annotate);

    std::string v2;
    {
      Span s("trace.encode_v2");
      std::ostringstream os;
      store::save_v2(side.trace, os);
      v2 = os.str();
    }
    const std::string artifact = "p" + std::to_string(k) + ".trace";
    {
      Span s("store.put");
      store_->put(artifact, v2);
    }
    std::string back;
    {
      Span s("store.get");
      back = store_->get(artifact);
    }
    trace::Trace t2;
    {
      Span s("trace.decode_v2");
      std::istringstream is(back);
      t2 = store::load_v2(is);
    }
    check(back == v2 && t2.misses.size() == side.trace.misses.size() &&
              t2.barriers.size() == side.trace.barriers.size(),
          "trace archive round trip");

    const auto t_compare = Clock::now();
    sim::SimConfig cfg;
    cfg.nodes = app.nodes;
    Measured base = measured_run(prog, cfg, nullptr, "baseline", ph);
    Measured anno = measured_run(annotated, cfg, nullptr, "annotated", ph);
    Measured planned = measured_run(prog, cfg, &side.plan, "plan", ph);
    check(same_results(base, anno, racy), "annotated-source run oracle");
    check(same_results(base, planned, racy), "plan-driven run oracle");
    std::string report_bytes;
    {
      Span s("obs.report");
      const obs::Json cmp = obs::comparison_json(base.json, anno.json);
      std::vector<obs::Json> runs;
      runs.push_back(std::move(base.json));
      runs.push_back(std::move(anno.json));
      runs.push_back(std::move(planned.json));
      obs::Json rep = obs::make_report(
          "compare", obs::config_json(cfg, "dir1sw", ""), std::move(runs));
      rep.set("comparison", cmp);
      report_bytes = rep.dump_string();
    }
    ph.layer_sums["stage.compare_ms"] += ms_since(t_compare);

    // Determinism guard: every revisit must reproduce the first visit.
    std::ostringstream plan_text;
    sim::save_plan(side.plan, plan_text);
    common::ContentHasher h;
    h << side.text << plan_text.str() << side.report << v2 << report_bytes
      << std::to_string(base.cycles) + "/" + std::to_string(anno.cycles) + "/" +
             std::to_string(planned.cycles);
    Visit v;
    v.seen = true;
    v.digest = h.hex();
    v.norm_time =
        static_cast<double>(anno.cycles) / static_cast<double>(base.cycles);
    // Counts over the three measured runs of one pass.
    for (const Measured* r : {&base, &anno, &planned}) {
      v.counts["sim.accesses"] += static_cast<double>(r->loads + r->stores);
      v.counts["sim.boundary_rounds"] += static_cast<double>(r->rounds);
      v.counts["proto.traps"] += static_cast<double>(r->traps);
      v.counts["net.messages"] += static_cast<double>(r->messages);
    }
    v.counts["trace.records"] = static_cast<double>(
        side.trace.misses.size() + side.trace.barriers.size());
    v.counts["trace.v2_bytes"] = static_cast<double>(v2.size());
    v.counts["srcann.directives"] = static_cast<double>(side.directives);
    Visit& first = visits_[k];
    if (!first.seen) {
      v.op_ms = std::move(first.op_ms);
      first = std::move(v);
    } else if (first.digest != v.digest || first.counts != v.counts) {
      check(false, "determinism (rerun reproduces the first visit)");
    }
    return ok;
  }

  [[nodiscard]] std::size_t unvisited() const {
    std::size_t n = 0;
    for (const Visit& v : visits_) n += v.seen ? 0 : 1;
    return n;
  }

  Args args_;
  std::vector<AppProgram> apps_;
  std::string store_dir_;
  std::unique_ptr<store::ObjectStore> store_;
  std::vector<Visit> visits_;
  std::size_t next_ = 0;
  bool ok_ = true;
};

}  // namespace

std::unique_ptr<Workload> make_pipeline(const Args& a) {
  return std::make_unique<Pipeline>(a);
}

}  // namespace perfbench

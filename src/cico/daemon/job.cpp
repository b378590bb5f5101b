#include "cico/daemon/job.hpp"

#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "cico/analysis/diagnostics.hpp"
#include "cico/analysis/fix.hpp"
#include "cico/analysis/typestate.hpp"
#include "cico/cachier/plan_builder.hpp"
#include "cico/cachier/sharing.hpp"
#include "cico/common/hash.hpp"
#include "cico/common/stats.hpp"
#include "cico/lang/interp.hpp"
#include "cico/lang/parser.hpp"
#include "cico/lang/unparse.hpp"
#include "cico/obs/collector.hpp"
#include "cico/obs/report.hpp"
#include "cico/sim/machine.hpp"
#include "cico/sim/plan_io.hpp"
#include "cico/srcann/annotator.hpp"
#include "cico/trace/trace.hpp"

namespace cico::daemon {

namespace {

/// What every command sees: the request, its parsed source, and the
/// run-time hooks that are not part of the request.
struct Ctx {
  const JobRequest& req;
  const lang::Program& prog;
  const std::atomic<bool>* cancel;
};

/// A measured run's configuration; jobs always simulate Dir1SW.
sim::SimConfig sim_config(const JobConfig& jc) {
  return {.nodes = jc.nodes,
          .faults = jc.faults.empty() ? fault::FaultSpec{}
                                      : fault::FaultSpec::parse(jc.faults),
          .audit_invariants = jc.paranoid};
}

/// A trace-mode run of the program (Fig. 1's first step).  The machine
/// and the loaded program stay alive for the passes that read them.
struct TraceRun {
  sim::SimConfig cfg;
  sim::Machine m;
  lang::LoadedProgram lp;
  trace::Trace trace;

  explicit TraceRun(const Ctx& c)
      : cfg{.nodes = c.req.cfg.nodes, .trace_mode = true},
        m(cfg),
        lp(c.prog, m) {
    m.set_cancel_flag(c.cancel);
    trace::TraceWriter w;
    m.set_trace_writer(&w);
    w.set_labels(m.heap().trace_labels());
    m.run([&](sim::Proc& p) { lp.run_node(p); });
    trace = w.take();
    m.set_trace_writer(nullptr);  // `w` (and its epoch buffers) dies here
  }
};

srcann::AnnotateResult trace_annotate(const Ctx& c) {
  const TraceRun t(c);
  return srcann::annotate(c.prog, t.trace, t.lp, t.cfg.cache,
                          {.mode = c.req.cfg.mode});
}

/// The deterministic stats block `cachier run` prints.
std::string format_run_stats(const sim::Machine& m,
                             const sim::SimConfig& cfg) {
  std::string os;
  const auto row = [&](std::string_view name, std::uint64_t v,
                       const char* unit) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%-17s %llu%s\n",
                  (std::string(name) + ":").c_str(),
                  static_cast<unsigned long long>(v), unit);
    os += buf;
  };
  row("nodes", cfg.nodes, "");
  row("execution time", m.exec_time(), " cycles");
  row("epochs", m.epochs_completed(), "");
  std::vector<Stat> shown = {
      Stat::SharedLoads,   Stat::SharedStores, Stat::ReadMisses,
      Stat::WriteMisses,   Stat::WriteFaults,  Stat::Traps,
      Stat::Invalidations, Stat::Messages,     Stat::CheckOutX,
      Stat::CheckOutS,     Stat::CheckIns,     Stat::PrefetchIssued,
      Stat::BoundaryRounds};
  if (cfg.faults.injects()) {
    shown.insert(shown.end(),
                 {Stat::MsgDropped, Stat::MsgDuplicated, Stat::Retries,
                  Stat::PrefetchThrottled, Stat::WatchdogTrips});
  }
  for (const Stat s : shown) row(stat_name(s), m.stats().total(s), "");
  return os;
}

/// Observation of one measured run: a Collector only when the request
/// asked for something it feeds.
struct Observed {
  std::unique_ptr<obs::Collector> col;
  obs::Json run;
};

Observed observe(const Ctx& c, bool events) {
  Observed o;
  if (!c.req.cfg.want_report && !events) return o;
  o.col = std::make_unique<obs::Collector>();
  o.col->set_events_enabled(events);
  return o;
}

/// One measured run: appends the stats block to r.out and the host-time
/// line to r.host, and fills o.run when observed.
Cycle measure(const Ctx& c, const lang::Program& prog,
              const sim::SimConfig& cfg, const sim::DirectivePlan* plan,
              Observed& o, std::string_view name, JobResult& r) {
  sim::Machine m(cfg);
  m.set_cancel_flag(c.cancel);
  lang::LoadedProgram lp(prog, m);
  if (plan != nullptr) m.set_plan(plan);
  if (o.col != nullptr) m.set_observer(o.col.get());
  m.run([&](sim::Proc& p) { lp.run_node(p); });
  if (o.col != nullptr) {
    o.run = obs::run_json(name, m.exec_time(), m.epochs_completed(),
                          m.stats(), m.network(), *o.col);
  }
  r.out += format_run_stats(m, cfg);
  char line[128];
  std::snprintf(line, sizeof line,
                "# host: total=%.3fs boundary=%.3fs window=%.3fs\n",
                m.host_total_seconds(), m.host_boundary_seconds(),
                m.host_total_seconds() - m.host_boundary_seconds());
  r.host += line;
  return m.exec_time();
}

/// Renders the events of the last run into r.events and the report of
/// `runs` (a compare when there are two) into r.report.
void emit(const Ctx& c, std::string_view kind, const sim::SimConfig& cfg,
          const std::vector<Observed*>& runs, JobResult& r) {
  const JobConfig& jc = c.req.cfg;
  if (jc.want_events) {
    std::ostringstream os;
    runs.back()->col->write_chrome_trace(os);
    r.events = os.str();
  }
  if (!jc.want_report) return;
  const obs::Json cmp = runs.size() == 2 ? obs::comparison_json(
                                               runs[0]->run, runs[1]->run)
                                         : obs::Json();
  std::vector<obs::Json> run_docs;
  for (Observed* o : runs) run_docs.push_back(std::move(o->run));
  obs::Json rep = obs::make_report(
      kind, obs::config_json(cfg, "dir1sw", jc.faults), std::move(run_docs));
  if (runs.size() == 2) rep.set("comparison", cmp);
  r.report = rep.dump_string();
}

void do_annotate(const Ctx& c, JobResult& r) {
  const JobConfig& jc = c.req.cfg;
  const srcann::AnnotateResult res =
      jc.static_mode
          ? srcann::annotate_static(
                c.prog, jc.nodes, {.mode = jc.mode, .prefetch = jc.prefetch})
          : trace_annotate(c);
  r.out = lang::unparse(res.program);
  char line[160];
  std::snprintf(line, sizeof line,
                "# cachier: %zu annotations, %zu generated loops, %zu "
                "dropped, %zu races, %zu false-sharing blocks\n",
                res.inserted, res.generated_loops, res.dropped, res.races,
                res.false_shares);
  r.diags.emplace_back(line);
  // Self-lint oracle: Cachier's own output must satisfy the CICO rules.
  // A diagnostic here is an annotator bug, so errors fail the command.
  // The lint reads the emitted text, so it sees exactly what a user's
  // `cachier lint` would and every position points into stdout.
  const analysis::LintResult lint = analysis::lint(lang::parse(r.out));
  if (!lint.diagnostics.empty()) {
    std::ostringstream ss;
    analysis::print_text(ss, "<annotated>", lint);
    r.diags.push_back("# cachier: self-lint:\n" + ss.str());
    if (lint.exit_code() == 2) r.exit = 2;
  }
}

void do_lint(const Ctx& c, JobResult& r) {
  const std::string& name = c.req.name;
  const auto text = [&](const analysis::LintResult& lint) {
    std::ostringstream ss;
    analysis::print_text(ss, name, lint);
    return ss.str();
  };
  analysis::LintResult lint;
  if (c.req.cfg.fix) {
    analysis::FixResult res = analysis::apply_fixes(c.prog);
    r.out = lang::unparse(res.program);
    r.diags.push_back("# cachier: fix: " + std::to_string(res.applied) +
                      " fixes in " + std::to_string(res.passes) +
                      " passes\n");
    for (const std::string& line : res.log) {
      r.diags.push_back("# cachier: fix: " + line + "\n");
    }
    lint = std::move(res.lint);
    if (!lint.diagnostics.empty()) {
      r.diags.push_back("# cachier: fix: residual diagnostics:\n" +
                        text(lint));
    }
    // The fix contract is all-or-nothing: anything left unfixed is a
    // hard failure so CI can gate on it.
    r.exit = lint.diagnostics.empty() ? 0 : 2;
  } else {
    lint = analysis::lint(c.prog);
    r.out = text(lint);
    r.exit = lint.exit_code();
  }
  if (c.req.cfg.want_report) {
    r.report = analysis::lint_json(name, lint).dump_string();
  }
}

void do_run(const Ctx& c, JobResult& r) {
  sim::DirectivePlan plan;
  const sim::DirectivePlan* pp = nullptr;
  if (!c.req.plan_text.empty()) {
    std::istringstream in(c.req.plan_text);
    plan = sim::load_plan(in);
    pp = &plan;
  }
  const sim::SimConfig cfg = sim_config(c.req.cfg);
  Observed o = observe(c, c.req.cfg.want_events);
  measure(c, c.prog, cfg, pp, o, "run", r);
  emit(c, "run", cfg, {&o}, r);
}

void do_compare(const Ctx& c, JobResult& r) {
  const srcann::AnnotateResult res = trace_annotate(c);
  const lang::Program annotated = lang::parse(lang::unparse(res.program));
  const sim::SimConfig cfg = sim_config(c.req.cfg);
  Observed base = observe(c, false);
  // --events on compare exports the ANNOTATED run (one trace per file).
  Observed anno = observe(c, c.req.cfg.want_events);
  r.out = "-- unannotated --\n";
  const Cycle t_base = measure(c, c.prog, cfg, nullptr, base, "baseline", r);
  r.out += "-- " + std::string(cachier::mode_name(c.req.cfg.mode)) +
           " CICO (" + std::to_string(res.inserted) + " annotations) --\n";
  const Cycle t_anno =
      measure(c, annotated, cfg, nullptr, anno, "annotated", r);
  char line[64];
  std::snprintf(line, sizeof line, "\nnormalized execution time: %.3f\n",
                static_cast<double>(t_anno) / static_cast<double>(t_base));
  r.out += line;
  emit(c, "compare", cfg, {&base, &anno}, r);
}

void do_trace(const Ctx& c, JobResult& r) {
  const TraceRun t(c);
  std::ostringstream os;
  trace::save_text(t.trace, os);
  r.out = os.str();
}

void do_report(const Ctx& c, JobResult& r) {
  TraceRun t(c);
  const cachier::SharingAnalyzer sa(t.trace, t.cfg.cache);
  r.out = sa.report(t.trace, t.m.pcs());
}

void do_plan(const Ctx& c, JobResult& r) {
  const TraceRun t(c);
  cachier::PlanBuilder pb(t.trace, t.cfg.cache);
  const sim::DirectivePlan plan = pb.build({.mode = c.req.cfg.mode});
  std::ostringstream os;
  sim::save_plan(plan, os);
  r.out = os.str();
}

struct Command {
  std::string_view name;
  void (*run)(const Ctx&, JobResult&);
};

constexpr Command kCommands[] = {
    {"annotate", do_annotate}, {"lint", do_lint},     {"run", do_run},
    {"compare", do_compare},   {"trace", do_trace},   {"report", do_report},
    {"plan", do_plan},
};

const Command* find_command(std::string_view name) {
  for (const Command& cmd : kCommands) {
    if (cmd.name == name) return &cmd;
  }
  return nullptr;
}

/// The boolean JobConfig switches and their `config` keys.  One table
/// drives the submit codec and the cache key.
struct Flag {
  std::string_view key;
  bool JobConfig::*field;
};

constexpr Flag kFlags[] = {
    {"paranoid", &JobConfig::paranoid}, {"static", &JobConfig::static_mode},
    {"prefetch", &JobConfig::prefetch}, {"fix", &JobConfig::fix},
    {"report", &JobConfig::want_report}, {"events", &JobConfig::want_events},
};

}  // namespace

bool known_command(std::string_view cmd) {
  return find_command(cmd) != nullptr;
}

std::string cache_key(const JobRequest& req) {
  common::ContentHasher h;
  h << req.command << req.name << req.source << req.plan_text
    << std::to_string(req.cfg.nodes) << cachier::mode_name(req.cfg.mode)
    << req.cfg.faults;
  for (const Flag& f : kFlags) h << (req.cfg.*f.field ? "1" : "0");
  return h.hex();
}

JobResult run_job(const JobRequest& req, const std::atomic<bool>* cancel) {
  JobResult r;
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    r.cancelled = true;
    r.exit = 2;
    r.error = "run cancelled (deadline or client gone)";
    return r;
  }
  try {
    const Command* cmd = find_command(req.command);
    if (cmd == nullptr) {
      throw std::runtime_error("unknown job command: " + req.command);
    }
    const lang::Program prog = lang::parse(req.source);
    cmd->run(Ctx{req, prog, cancel}, r);
  } catch (const sim::SimCancelled& e) {
    r = JobResult{};
    r.cancelled = true;
    r.exit = 2;
    r.error = e.what();
  } catch (const std::exception& e) {
    r = JobResult{};
    r.exit = 2;
    r.error = e.what();
  }
  return r;
}

// --- JSON (de)serialization ------------------------------------------------

namespace {

using obs::Json;

std::string get_string(const Json& j, std::string_view key,
                       bool required = false) {
  const Json* v = j.find(key);
  if (v == nullptr) {
    if (required) {
      throw std::runtime_error("missing field: " + std::string(key));
    }
    return {};
  }
  if (v->type() != Json::Type::String) {
    throw std::runtime_error("field is not a string: " + std::string(key));
  }
  return v->as_string();
}

std::uint64_t get_u64(const Json& j, std::string_view key,
                      std::uint64_t fallback) {
  const Json* v = j.find(key);
  if (v == nullptr) return fallback;
  if (v->type() != Json::Type::Number) {
    throw std::runtime_error("field is not a number: " + std::string(key));
  }
  return v->as_u64();
}

bool get_bool(const Json& j, std::string_view key, bool fallback) {
  const Json* v = j.find(key);
  if (v == nullptr) return fallback;
  if (v->type() != Json::Type::Bool) {
    throw std::runtime_error("field is not a bool: " + std::string(key));
  }
  return v->as_bool();
}

}  // namespace

obs::Json submit_frame(const JobRequest& req) {
  Json f = Json::object();
  f.set("type", Json::string("submit"));
  f.set("command", Json::string(req.command));
  f.set("name", Json::string(req.name));
  f.set("source", Json::string(req.source));
  if (!req.plan_text.empty()) f.set("plan", Json::string(req.plan_text));
  Json cfg = Json::object();
  cfg.set("nodes", Json::number(static_cast<std::uint64_t>(req.cfg.nodes)));
  cfg.set("mode", Json::string(cachier::mode_name(req.cfg.mode)));
  cfg.set("faults", Json::string(req.cfg.faults));
  for (const Flag& fl : kFlags) {
    cfg.set(fl.key, Json::boolean(req.cfg.*fl.field));
  }
  cfg.set("deadline_ms", Json::number(req.cfg.deadline_ms));
  f.set("config", std::move(cfg));
  return f;
}

JobRequest parse_submit(const obs::Json& frame) {
  JobRequest req;
  req.command = get_string(frame, "command", /*required=*/true);
  if (!known_command(req.command)) {
    throw std::runtime_error("unknown job command: " + req.command);
  }
  req.name = get_string(frame, "name");
  req.source = get_string(frame, "source", /*required=*/true);
  req.plan_text = get_string(frame, "plan");
  const Json* cfg = frame.find("config");
  if (cfg != nullptr) {
    if (cfg->type() != Json::Type::Object) {
      throw std::runtime_error("config is not an object");
    }
    const std::uint64_t nodes = get_u64(*cfg, "nodes", 8);
    if (nodes == 0 || nodes > 4096) {
      throw std::runtime_error("config.nodes out of range: " +
                               std::to_string(nodes));
    }
    req.cfg.nodes = static_cast<std::uint32_t>(nodes);
    const std::string mode = get_string(*cfg, "mode");
    if (mode == "programmer") {
      req.cfg.mode = cachier::Mode::Programmer;
    } else if (mode.empty() || mode == "performance") {
      req.cfg.mode = cachier::Mode::Performance;
    } else {
      throw std::runtime_error("config.mode unknown: " + mode);
    }
    req.cfg.faults = get_string(*cfg, "faults");
    for (const Flag& fl : kFlags) {
      req.cfg.*fl.field = get_bool(*cfg, fl.key, false);
    }
    // Older clients still send a saved "trace" or config.boundary_threads;
    // like any unknown key they are ignored.
    req.cfg.deadline_ms = get_u64(*cfg, "deadline_ms", 0);
  }
  return req;
}

obs::Json job_result_json(const JobResult& res) {
  Json j = Json::object();
  j.set("exit", Json::number(static_cast<std::int64_t>(res.exit)));
  for (const Payload& p : kPayloads) {
    j.set(p.key, Json::string(res.*p.field));
  }
  j.set("error", Json::string(res.error));
  Json diags = Json::array();
  for (const std::string& d : res.diags) diags.push_back(Json::string(d));
  j.set("diags", std::move(diags));
  return j;
}

JobResult job_result_from_json(const obs::Json& doc) {
  JobResult res;
  const Json* exit = doc.find("exit");
  if (exit == nullptr || exit->type() != Json::Type::Number) {
    throw std::runtime_error("result: missing exit code");
  }
  res.exit = static_cast<int>(exit->as_u64());
  for (const Payload& p : kPayloads) res.*p.field = get_string(doc, p.key);
  res.error = get_string(doc, "error");
  const Json* diags = doc.find("diags");
  if (diags != nullptr && diags->type() == Json::Type::Array) {
    for (std::size_t i = 0; i < diags->size(); ++i) {
      res.diags.push_back(diags->at(i).as_string());
    }
  }
  return res;
}

obs::Json result_frame(const JobResult& res) {
  Json f = Json::object();
  f.set("type", Json::string("result"));
  f.set("cached", Json::boolean(res.cached));
  f.set("cancelled", Json::boolean(res.cancelled));
  f.set("key", Json::string(res.key));
  const Json body = job_result_json(res);
  for (std::size_t i = 0; i < body.size(); ++i) {
    const auto& [k, v] = body.entry(i);
    f.set(k, v);
  }
  return f;
}

JobResult parse_result(const obs::Json& frame) {
  JobResult res = job_result_from_json(frame);
  res.cached = get_bool(frame, "cached", false);
  res.cancelled = get_bool(frame, "cancelled", false);
  res.key = get_string(frame, "key");
  return res;
}

}  // namespace cico::daemon

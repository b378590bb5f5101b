#include "cico/daemon/job.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "cico/analysis/diagnostics.hpp"
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

const char* protocol_name(sim::ProtocolKind k) {
  return k == sim::ProtocolKind::DirNFullMap ? "dirn_full_map" : "dir1sw";
}

sim::SimConfig sim_config(const JobConfig& jc) {
  sim::SimConfig cfg;
  cfg.nodes = jc.nodes;
  if (!jc.faults.empty()) cfg.faults = fault::FaultSpec::parse(jc.faults);
  cfg.audit_invariants = jc.paranoid;
  return cfg;
}

struct Traced {
  trace::Trace trace;
  std::string report;
};

/// Traces the program (the CLI's trace_program), honouring `cancel`.
Traced trace_program(const lang::Program& prog, std::uint32_t nodes,
                     const std::atomic<bool>* cancel) {
  sim::SimConfig cfg;
  cfg.nodes = nodes;
  cfg.trace_mode = true;
  sim::Machine m(cfg);
  m.set_cancel_flag(cancel);
  trace::TraceWriter w;
  m.set_trace_writer(&w);
  lang::LoadedProgram lp(prog, m);
  w.set_labels(m.heap().trace_labels());
  m.run([&](sim::Proc& p) { lp.run_node(p); });
  Traced t;
  t.trace = w.take();
  cachier::SharingAnalyzer sa(t.trace, cfg.cache);
  t.report = sa.report(t.trace, m.pcs());
  return t;
}

/// A trace for annotate/plan: the supplied one when the request carries
/// it, else a fresh trace-mode run.
trace::Trace job_trace(const JobRequest& req, const lang::Program& prog,
                       const std::atomic<bool>* cancel) {
  if (!req.trace_text.empty()) {
    std::istringstream in(req.trace_text);
    return trace::load_text(in);
  }
  return trace_program(prog, req.cfg.nodes, cancel).trace;
}

void do_annotate(const JobRequest& req, const std::atomic<bool>* cancel,
                 JobResult& r) {
  const lang::Program prog = lang::parse(req.source);
  sim::SimConfig cfg;
  cfg.nodes = req.cfg.nodes;
  cfg.trace_mode = true;
  sim::Machine m(cfg);
  m.set_cancel_flag(cancel);
  trace::Trace t;
  lang::LoadedProgram lp(prog, m);
  if (!req.trace_text.empty()) {
    std::istringstream in(req.trace_text);
    t = trace::load_text(in);
  } else {
    trace::TraceWriter w;
    m.set_trace_writer(&w);
    w.set_labels(m.heap().trace_labels());
    m.run([&](sim::Proc& p) { lp.run_node(p); });
    t = w.take();
  }
  const srcann::AnnotateResult res =
      srcann::annotate(prog, t, lp, cfg.cache, {.mode = req.cfg.mode});
  r.out = lang::unparse(res.program);
  char line[160];
  std::snprintf(line, sizeof line,
                "# cachier: %zu annotations, %zu generated loops, %zu "
                "dropped, %zu races, %zu false-sharing blocks\n",
                res.inserted, res.generated_loops, res.dropped, res.races,
                res.false_shares);
  r.diags.emplace_back(line);
  if (!res.lint.diagnostics.empty()) {
    std::ostringstream ss;
    analysis::print_text(ss, "<annotated>", res.lint);
    r.diags.push_back("# cachier: self-lint:\n" + ss.str());
    if (res.lint.exit_code() == 2) r.exit = 2;
  }
}

void do_lint(const JobRequest& req, JobResult& r) {
  const lang::Program prog = lang::parse(req.source);
  const analysis::LintResult res = analysis::lint(prog);
  std::ostringstream ss;
  analysis::print_text(ss, req.name, res);
  r.out = ss.str();
  if (req.cfg.want_report) {
    r.report = analysis::lint_json(req.name, res).dump_string();
  }
  r.exit = res.exit_code();
}

void do_run(const JobRequest& req, const std::atomic<bool>* cancel,
            JobResult& r) {
  const lang::Program prog = lang::parse(req.source);
  sim::DirectivePlan plan;
  const sim::DirectivePlan* pp = nullptr;
  if (!req.plan_text.empty()) {
    std::istringstream in(req.plan_text);
    plan = sim::load_plan(in);
    pp = &plan;
  }
  const sim::SimConfig cfg = sim_config(req.cfg);
  obs::Collector col;
  sim::Machine m(cfg);
  m.set_cancel_flag(cancel);
  lang::LoadedProgram lp(prog, m);
  if (pp != nullptr) m.set_plan(pp);
  if (req.cfg.want_report) m.set_observer(&col);
  m.run([&](sim::Proc& p) { lp.run_node(p); });
  r.out = format_run_stats(m, cfg);
  if (req.cfg.want_report) {
    obs::Json run_j =
        obs::run_json("run", m.exec_time(), m.epochs_completed(), m.stats(),
                      m.network(), col);
    std::vector<obs::Json> runs;
    runs.push_back(std::move(run_j));
    const obs::Json rep = obs::make_report(
        "run",
        obs::config_json(cfg, protocol_name(cfg.protocol), req.cfg.faults),
        std::move(runs));
    std::ostringstream os;
    rep.dump(os);
    r.report = os.str();
  }
}

void do_trace(const JobRequest& req, const std::atomic<bool>* cancel,
              JobResult& r) {
  const lang::Program prog = lang::parse(req.source);
  const Traced t = trace_program(prog, req.cfg.nodes, cancel);
  std::ostringstream os;
  trace::save_text(t.trace, os);
  r.out = os.str();
}

void do_report(const JobRequest& req, const std::atomic<bool>* cancel,
               JobResult& r) {
  const lang::Program prog = lang::parse(req.source);
  r.out = trace_program(prog, req.cfg.nodes, cancel).report;
}

void do_plan(const JobRequest& req, const std::atomic<bool>* cancel,
             JobResult& r) {
  const lang::Program prog = lang::parse(req.source);
  const trace::Trace t = job_trace(req, prog, cancel);
  sim::SimConfig cfg;
  cachier::PlanBuilder pb(t, cfg.cache);
  const sim::DirectivePlan plan = pb.build({.mode = req.cfg.mode});
  std::ostringstream os;
  sim::save_plan(plan, os);
  r.out = os.str();
}

}  // namespace

bool known_command(std::string_view cmd) {
  return cmd == "annotate" || cmd == "lint" || cmd == "run" ||
         cmd == "trace" || cmd == "report" || cmd == "plan";
}

std::string cache_key(const JobRequest& req) {
  common::ContentHasher h;
  h << req.command << req.name << req.source << req.trace_text
    << req.plan_text << std::to_string(req.cfg.nodes)
    << cachier::mode_name(req.cfg.mode) << req.cfg.faults
    << (req.cfg.paranoid ? "1" : "0") << (req.cfg.want_report ? "1" : "0");
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
    if (req.command == "annotate") {
      do_annotate(req, cancel, r);
    } else if (req.command == "lint") {
      do_lint(req, r);
    } else if (req.command == "run") {
      do_run(req, cancel, r);
    } else if (req.command == "trace") {
      do_trace(req, cancel, r);
    } else if (req.command == "report") {
      do_report(req, cancel, r);
    } else if (req.command == "plan") {
      do_plan(req, cancel, r);
    } else {
      throw std::runtime_error("unknown job command: " + req.command);
    }
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

std::string format_run_stats(const sim::Machine& m,
                             const sim::SimConfig& cfg) {
  std::string os;
  char buf[128];
  std::snprintf(buf, sizeof buf, "nodes:            %u\n", cfg.nodes);
  os += buf;
  std::snprintf(buf, sizeof buf, "execution time:   %llu cycles\n",
                static_cast<unsigned long long>(m.exec_time()));
  os += buf;
  std::snprintf(buf, sizeof buf, "epochs:           %u\n",
                m.epochs_completed());
  os += buf;
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
  for (const Stat s : shown) {
    std::snprintf(buf, sizeof buf, "%-17s %llu\n",
                  (std::string(stat_name(s)) + ":").c_str(),
                  static_cast<unsigned long long>(m.stats().total(s)));
    os += buf;
  }
  return os;
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
  if (!req.trace_text.empty()) f.set("trace", Json::string(req.trace_text));
  if (!req.plan_text.empty()) f.set("plan", Json::string(req.plan_text));
  Json cfg = Json::object();
  cfg.set("nodes", Json::number(static_cast<std::uint64_t>(req.cfg.nodes)));
  cfg.set("mode", Json::string(cachier::mode_name(req.cfg.mode)));
  cfg.set("faults", Json::string(req.cfg.faults));
  cfg.set("paranoid", Json::boolean(req.cfg.paranoid));
  cfg.set("report", Json::boolean(req.cfg.want_report));
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
  req.trace_text = get_string(frame, "trace");
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
    req.cfg.paranoid = get_bool(*cfg, "paranoid", false);
    // Older clients still send config.boundary_threads; like any unknown
    // key it is ignored.
    req.cfg.want_report = get_bool(*cfg, "report", false);
    req.cfg.deadline_ms = get_u64(*cfg, "deadline_ms", 0);
  }
  return req;
}

obs::Json job_result_json(const JobResult& res) {
  Json j = Json::object();
  j.set("exit", Json::number(static_cast<std::int64_t>(res.exit)));
  j.set("stdout", Json::string(res.out));
  j.set("report", Json::string(res.report));
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
  res.out = get_string(doc, "stdout");
  res.report = get_string(doc, "report");
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

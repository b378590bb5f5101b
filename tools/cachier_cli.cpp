// cachier -- the command-line tool.
//
// Drives the full paper pipeline (Fig. 1) on a MiniPar source file:
//
//   cachier annotate prog.mp [-n nodes] [--mode programmer|performance]
//       trace the unannotated program, insert CICO annotations, print the
//       annotated source to stdout (the paper's core use case)
//   cachier annotate --static prog.mp [-n nodes] [--mode ...] [--prefetch]
//       trace-free Cachier: plan the annotations from static analysis
//       alone (affine region solving + the static sharing classifier,
//       docs/static_analysis.md) -- no simulation, no trace; --prefetch
//       additionally plans prefetch_S of shared-read sets
//   cachier run prog.mp [-n nodes] [--plan file] [--faults spec] [--paranoid]
//       run a (possibly annotated) program and print execution statistics
//   cachier plan prog.mp [-n nodes] [--mode ...]
//       trace the program and print the Cachier directive plan (load it
//       back with `run --plan`)
//   cachier report prog.mp [-n nodes]
//       print the data-race / false-sharing report
//   cachier compare prog.mp [-n nodes] [--mode ...] [--faults spec] [--paranoid]
//       annotate, then run both versions and print the speedup
//   cachier trace prog.mp [-n nodes]
//       dump the Fig. 3 trace (text format) to stdout
//   cachier trace --load file
//       validate a saved text trace and re-emit it canonically (exit 2
//       with a line-numbered message on malformed input)
//   cachier soak [--campaigns N] [--seed s] [--faults spec]
//       run seeded fault-injection campaigns over the bundled apps
//       (each campaign runs twice to verify per-seed determinism) and
//       report survival / retry / timeout statistics; failing campaigns
//       leave a repro spec under a temp directory (printed); SIGINT /
//       SIGTERM stops between runs, cleans the temp artifacts, reports
//       the partial campaign and exits 3 (distinct from errors)
//   cachier store put <dir> <file> [--name n]
//   cachier store get <dir> <name> [-o file]
//   cachier store ls <dir>
//   cachier store gc <dir>
//       local content-addressed artifact store (docs/trace_store.md):
//       put chunks an artifact (traces are normalized to the epoch-chunked
//       v2 form so near-identical runs share chunks), get reassembles it
//       byte-for-byte with every chunk re-verified, ls lists manifests,
//       gc removes unreferenced objects
//   cachier sync <src-store> <dst-store>
//       copy only the missing chunks (and changed manifests) from one
//       store directory into another
//   cachier version
//       print the tool + schema versions as JSON (the same identity
//       document the cachierd handshake exchanges)
//   cachier diff baseline.json candidate.json [--tolerances file]
//               [--tol pattern=spec]... [--summary]
//       schema-aware structural diff of two --report files; exits 0
//       (identical), 1 (divergences, all within tolerance), or 2
//       (regression / malformed input) -- the CI regression gate
//       (docs/report_schema.md, docs/observability.md); --summary prints
//       a one-line verdict instead of the full listing
//   cachier lint prog.mp [--json diag.json]
//       static CICO typestate check (docs/static_analysis.md): verifies
//       the check-in/check-out discipline over the CFG and prints
//       file:line:col diagnostics with stable CICO00x rule ids; --json
//       writes the schema-versioned diagnostic document (diffable with
//       `cachier diff`); exits 0 clean / 1 warnings / 2 errors
//   cachier lint --fix prog.mp [--json diag.json]
//       apply every machine-applicable fix (analysis/fix.hpp) and print
//       the FIXED source to stdout; stderr gets a one-line summary and
//       any residual diagnostics; exits 0 only when the fixed program
//       lints clean, else 2
//
// Observability (run / compare): `--report out.json` writes the versioned
// JSON run report and `--events out.json` the Chrome trace-event export
// (docs/observability.md).  Both are pure functions of simulated state, so
// their bytes are identical run to run.
// `--stream-epochs` writes epoch_series rows to a sidecar at each barrier
// flush instead of buffering them, keeping report memory O(1) in epoch
// count; the final report bytes are identical either way.
//
// Daemon mode: `--daemon <sock>` sends annotate / lint / run / trace /
// report / plan to a running cachierd instead of executing in-process
// (docs/cachierd.md).  The client streams status and diagnostics to
// stderr, prints the job's stdout bytes verbatim (byte-identical to a
// one-shot run, cached or fresh), honors `--deadline-ms`, and retries a
// busy or not-yet-listening daemon with exponential backoff.  A version
// mismatch at the handshake is exit 2.
//
// Exit status: 0 on success, 1 on usage errors, 2 on program errors
// (malformed numeric flags, parse errors, bad trace files, SimDeadlock,
// ProtocolTimeout, InvariantViolation, failed soak campaigns) -- every
// std::exception maps to exit 2 with a one-line `cachier: error: ...` on
// stderr.  `diff` overloads 1 as within-tolerance (its usage errors still
// print the usage text first).  `soak` adds exit 3: interrupted by
// SIGINT/SIGTERM with only a partial campaign completed.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/jacobi.hpp"
#include "apps/matmul.hpp"
#include "apps/ocean.hpp"
#include "cico/analysis/diagnostics.hpp"
#include "cico/analysis/fix.hpp"
#include "cico/analysis/typestate.hpp"
#include "cico/cachier/cachier.hpp"
#include "cico/common/parse_num.hpp"
#include "cico/daemon/client.hpp"
#include "cico/daemon/job.hpp"
#include "cico/daemon/protocol.hpp"
#include "cico/lang/interp.hpp"
#include "cico/lang/parser.hpp"
#include "cico/lang/unparse.hpp"
#include "cico/obs/diff.hpp"
#include "cico/obs/report.hpp"
#include "cico/obs/stream.hpp"
#include "cico/sim/plan_io.hpp"
#include "cico/srcann/annotator.hpp"
#include "cico/store/store.hpp"
#include "cico/store/sync.hpp"

using namespace cico;

namespace {

struct Options {
  std::string command;
  std::string file;
  std::string file2;            ///< diff: candidate; store: dir; sync: dst
  std::string file3;            ///< store put/get: the file / artifact name
  std::string store_name;       ///< store put --name <n>
  std::string out_file;         ///< store get -o <file>
  std::uint32_t nodes = 8;
  cachier::Mode mode = cachier::Mode::Performance;
  std::string faults;           ///< FaultSpec text; empty = faults disabled
  bool paranoid = false;        ///< audit invariants at every epoch boundary
  bool audit_memo = true;       ///< memoize paranoid audits (--no-audit-memo)
  std::string plan_file;        ///< run --plan <file>
  std::uint32_t campaigns = 10; ///< soak campaigns
  std::uint64_t seed = 1;       ///< soak base seed
  std::string report_file;      ///< run/compare --report <file>
  std::string events_file;      ///< run/compare --events <file>
  bool stream_epochs = false;   ///< stream epoch_series rows to a sidecar
  std::string trace_load;       ///< trace --load <file>
  std::string tolerances_file;  ///< diff --tolerances <file>
  std::vector<std::string> tol_flags;  ///< diff --tol pattern=spec
  bool diff_summary = false;    ///< diff --summary (one-line verdict)
  std::string json_file;        ///< lint --json <file>
  bool static_mode = false;     ///< annotate --static (trace-free planning)
  bool fix = false;             ///< lint --fix (apply machine fixes)
  bool prefetch = false;        ///< annotate --static --prefetch
  std::string daemon_sock;      ///< --daemon <sock>: send to cachierd
  std::uint64_t deadline_ms = 0;  ///< --deadline-ms for daemon jobs
};

void usage() {
  std::fprintf(
      stderr,
      "usage: cachier <annotate|run|plan|report|compare|trace> prog.mp\n"
      "               [-n nodes] [--mode programmer|performance]\n"
      "               [--plan file] [--faults spec] [--paranoid]\n"
      "               [--no-audit-memo]\n"
      "               [--report out.json] [--events out.json]\n"
      "               [--stream-epochs]\n"
      "               [--daemon sock] [--deadline-ms N]\n"
      "       cachier annotate --static prog.mp [-n nodes] [--mode ...]\n"
      "               [--prefetch]   (trace-free planning)\n"
      "       cachier lint prog.mp [--fix] [--json diag.json] [--daemon sock]\n"
      "       cachier trace --load trace.txt\n"
      "       cachier version\n"
      "       cachier soak [--campaigns N] [--seed s] [--faults spec]\n"
      "               (exit 3 when interrupted by SIGINT/SIGTERM)\n"
      "       cachier diff baseline.json candidate.json\n"
      "               [--tolerances rules.toml] [--tol pattern=spec]...\n"
      "               [--summary]\n"
      "       cachier store put <dir> <file> [--name n]\n"
      "       cachier store get <dir> <name> [-o file]\n"
      "       cachier store ls <dir>\n"
      "       cachier store gc <dir>\n"
      "       cachier sync <src-store> <dst-store>\n");
}

const char* protocol_name(sim::ProtocolKind k) {
  return k == sim::ProtocolKind::DirNFullMap ? "dirn_full_map" : "dir1sw";
}

/// Opens `path` for writing or throws (maps to exit 2).
std::ofstream open_out(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Binary-exact read for store artifacts (v1/v2 traces contain raw bytes).
std::string slurp_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

sim::SimConfig make_config(const Options& opt) {
  sim::SimConfig cfg;
  cfg.nodes = opt.nodes;
  if (!opt.faults.empty()) cfg.faults = fault::FaultSpec::parse(opt.faults);
  cfg.audit_invariants = opt.paranoid;
  cfg.audit_memo = opt.audit_memo;
  return cfg;
}

struct Traced {
  trace::Trace trace;
  Cycle time = 0;
  std::string report;
};

Traced trace_program(const lang::Program& prog, std::uint32_t nodes) {
  sim::SimConfig cfg;
  cfg.nodes = nodes;
  cfg.trace_mode = true;
  sim::Machine m(cfg);
  trace::TraceWriter w;
  m.set_trace_writer(&w);
  lang::LoadedProgram lp(prog, m);
  w.set_labels(m.heap().trace_labels());
  m.run([&](sim::Proc& p) { lp.run_node(p); });
  Traced t;
  t.trace = w.take();
  t.time = m.exec_time();
  cachier::SharingAnalyzer sa(t.trace, cfg.cache);
  t.report = sa.report(t.trace, m.pcs());
  return t;
}

Cycle run_program(const lang::Program& prog, const sim::SimConfig& cfg,
                  bool print_stats, const sim::DirectivePlan* plan = nullptr,
                  obs::Collector* col = nullptr,
                  obs::Json* run_out = nullptr,
                  std::string_view run_name = "run",
                  std::string_view series_splice_id = {}) {
  sim::Machine m(cfg);
  lang::LoadedProgram lp(prog, m);
  if (plan != nullptr) m.set_plan(plan);
  if (col != nullptr) m.set_observer(col);
  m.run([&](sim::Proc& p) { lp.run_node(p); });
  if (col != nullptr && run_out != nullptr) {
    *run_out = obs::run_json(run_name, m.exec_time(), m.epochs_completed(),
                             m.stats(), m.network(), *col, series_splice_id);
  }
  if (print_stats) {
    // The deterministic stats block is shared with the daemon job runner
    // (cico::daemon::format_run_stats) so a cachierd-served `run` is
    // byte-identical to this one-shot path.
    std::fputs(daemon::format_run_stats(m, cfg).c_str(), stdout);
    // Host wall-clock is inherently nondeterministic, so it goes to stderr:
    // stdout stays byte-identical run to run.
    std::fprintf(stderr, "# host: total=%.3fs boundary=%.3fs window=%.3fs\n",
                 m.host_total_seconds(), m.host_boundary_seconds(),
                 m.host_total_seconds() - m.host_boundary_seconds());
  }
  return m.exec_time();
}

srcann::AnnotateResult annotate_program(const lang::Program& prog,
                                        std::uint32_t nodes,
                                        cachier::Mode mode,
                                        Traced* traced_out = nullptr) {
  sim::SimConfig cfg;
  cfg.nodes = nodes;
  cfg.trace_mode = true;
  sim::Machine m(cfg);
  trace::TraceWriter w;
  m.set_trace_writer(&w);
  lang::LoadedProgram lp(prog, m);
  w.set_labels(m.heap().trace_labels());
  m.run([&](sim::Proc& p) { lp.run_node(p); });
  trace::Trace t = w.take();
  if (traced_out != nullptr) traced_out->trace = t;
  return srcann::annotate(prog, t, lp, cfg.cache, {.mode = mode});
}

// --- soak: seeded fault campaigns over the bundled apps --------------------

struct SoakApp {
  const char* name;
  std::uint32_t nodes;  ///< grid-constrained apps fix their own node count
  std::function<std::unique_ptr<apps::App>(std::uint64_t)> make;
};

/// Small inputs keep a full default campaign (10 mixes x 3 apps x 2
/// determinism runs) in the few-second range.
std::vector<SoakApp> soak_apps() {
  return {
      {"matmul", 8,
       [](std::uint64_t s) {
         apps::MatMulConfig c;
         c.n = 24;
         c.prow = 4;
         c.pcol = 2;
         return std::make_unique<apps::MatMul>(c, s);
       }},
      {"jacobi", 16,
       [](std::uint64_t s) {
         apps::JacobiConfig c;
         c.n = 16;
         c.steps = 2;
         c.p = 4;
         return std::make_unique<apps::Jacobi>(c, s);
       }},
      {"ocean", 8,
       [](std::uint64_t s) {
         apps::OceanConfig c;
         c.n = 32;
         c.iters = 2;
         return std::make_unique<apps::Ocean>(c, s);
       }},
  };
}

/// Fault mixes cycled across campaigns (the campaign seed varies per
/// campaign, so repeated mixes still explore different fault patterns).
const char* const kSoakMixes[] = {
    "drop=0.02",
    "drop=0.05,dup=0.02",
    "dup=0.05,delay=0.1:40",
    "drop=0.01,stall=0.05:200",
    "drop=0.03,dup=0.01,delay=0.05:25,stall=0.02:100",
};

struct SoakMeasure {
  const char* status = "ok";
  bool verified = true;
  Cycle time = 0;
  std::uint64_t msgs = 0;
  std::uint64_t retries = 0;
  std::uint64_t drops = 0;
  std::uint64_t dups = 0;
};

SoakMeasure soak_once(const SoakApp& a, const std::string& spec) {
  sim::SimConfig cfg;
  cfg.nodes = a.nodes;
  cfg.faults = fault::FaultSpec::parse(spec);
  cfg.audit_invariants = true;  // soak always runs paranoid
  sim::Machine m(cfg);
  std::unique_ptr<apps::App> app = a.make(/*input seed=*/2);
  app->setup(m, apps::Variant::None);
  SoakMeasure r;
  try {
    m.run([&](sim::Proc& p) { app->body(p); });
  } catch (const sim::ProtocolTimeout&) {
    r.status = "timeout";
  } catch (const sim::InvariantViolation&) {
    r.status = "invariant";
  } catch (const sim::SimDeadlock&) {
    r.status = "deadlock";
  }
  r.time = m.exec_time();
  r.msgs = m.network().total_sent();
  r.retries = m.stats().total(Stat::Retries);
  r.drops = m.stats().total(Stat::MsgDropped);
  r.dups = m.stats().total(Stat::MsgDuplicated);
  if (r.status[0] == 'o') r.verified = app->verify();
  return r;
}

/// SIGINT/SIGTERM flag for soak: the handler only sets this; the campaign
/// loop polls it between runs so an interrupt never tears a simulation
/// mid-flight or leaks temp artifacts.
volatile std::sig_atomic_t g_soak_stop = 0;

void soak_signal(int) { g_soak_stop = 1; }

/// RAII for soak's repro-artifact directory.  Failing campaigns leave a
/// .repro spec file behind for replay; the directory is removed when
/// every campaign passed -- and always on SIGINT/SIGTERM, so an aborted
/// soak never litters /tmp.
struct SoakArtifacts {
  std::string dir;

  SoakArtifacts() {
    char tmpl[] = "/tmp/cachier_soak_XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) dir = tmpl;
  }
  ~SoakArtifacts() { clean(); }

  void note(std::uint64_t seed, const std::string& spec,
            const char* app) const {
    if (dir.empty()) return;
    std::ofstream out(dir + "/campaign_" + std::to_string(seed) + "_" + app +
                      ".repro");
    out << "# replay: cachier soak --campaigns 1 --seed " << seed
        << " --faults '" << spec << "'  (app: " << app << ")\n"
        << spec << "\n";
  }

  [[nodiscard]] bool empty() const {
    if (dir.empty()) return true;
    std::error_code ec;
    return std::filesystem::is_empty(dir, ec) || ec;
  }

  void clean() {
    if (dir.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    dir.clear();
  }
};

int do_soak(const Options& opt) {
  const std::vector<SoakApp> bundled = soak_apps();
  const std::size_t n_mixes = sizeof(kSoakMixes) / sizeof(kSoakMixes[0]);
  g_soak_stop = 0;
  std::signal(SIGINT, soak_signal);
  std::signal(SIGTERM, soak_signal);
  SoakArtifacts artifacts;
  std::uint32_t total = 0;
  std::uint32_t survived = 0;
  std::uint32_t timeouts = 0;
  std::uint32_t deadlocks = 0;
  std::uint32_t violations = 0;
  std::uint32_t nondet = 0;
  std::uint64_t retries = 0;
  std::uint64_t drops = 0;

  bool interrupted = false;
  for (std::uint32_t c = 0; c < opt.campaigns && !interrupted; ++c) {
    const std::uint64_t seed = opt.seed + c;
    // retries=0 (unbounded budget) so moderate drop rates never abort on a
    // timeout; the watchdog still converts true livelock into SimDeadlock.
    std::string spec = opt.faults.empty()
                           ? std::string(kSoakMixes[c % n_mixes]) +
                                 ",retries=0,throttle=4"
                           : opt.faults;
    spec += ",seed=" + std::to_string(seed);
    for (const SoakApp& a : bundled) {
      if (g_soak_stop != 0) {
        interrupted = true;
        break;
      }
      ++total;
      const SoakMeasure r1 = soak_once(a, spec);
      const SoakMeasure r2 = soak_once(a, spec);
      const bool det = r1.time == r2.time && r1.msgs == r2.msgs &&
                       r1.retries == r2.retries && r1.drops == r2.drops &&
                       r1.dups == r2.dups &&
                       std::strcmp(r1.status, r2.status) == 0;
      const bool ok = std::strcmp(r1.status, "ok") == 0 && r1.verified;
      if (ok) ++survived;
      if (std::strcmp(r1.status, "timeout") == 0) ++timeouts;
      if (std::strcmp(r1.status, "deadlock") == 0) ++deadlocks;
      if (std::strcmp(r1.status, "invariant") == 0) ++violations;
      if (!det) ++nondet;
      if (!ok || !det) artifacts.note(seed, spec, a.name);
      retries += r1.retries;
      drops += r1.drops;
      std::printf(
          "[%3u] %-7s seed=%-4llu %-9s t=%-9llu retries=%-6llu "
          "drops=%-5llu dups=%-5llu det=%s  %s\n",
          total, a.name, static_cast<unsigned long long>(seed), r1.status,
          static_cast<unsigned long long>(r1.time),
          static_cast<unsigned long long>(r1.retries),
          static_cast<unsigned long long>(r1.drops),
          static_cast<unsigned long long>(r1.dups), det ? "yes" : "NO",
          spec.c_str());
    }
  }

  std::printf(
      "\nsoak: %u runs (%u campaigns x %zu apps), %u survived, "
      "%u timeouts, %u deadlocks, %u invariant violations, "
      "%u non-deterministic; %llu retries, %llu drops total\n",
      total, opt.campaigns, bundled.size(), survived, timeouts, deadlocks,
      violations, nondet, static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(drops));
  if (interrupted) {
    // Partial campaign: report what completed, clean the temp artifacts,
    // and exit with a code distinct from both success and error so a
    // supervisor can tell "operator stopped it" from "it broke".
    std::printf("soak: interrupted by signal after %u of %u runs\n", total,
                opt.campaigns * static_cast<std::uint32_t>(bundled.size()));
    artifacts.clean();
    return 3;
  }
  if (survived != total || nondet != 0) {
    std::string msg = "soak: campaign failures (see table above)";
    if (!artifacts.empty()) {
      msg += "; repro specs kept in " + artifacts.dir;
      artifacts.dir.clear();  // keep the directory for replay
    }
    throw std::runtime_error(msg);
  }
  return 0;
}

// --- diff: schema-aware report comparison (the CI regression gate) ---------

int do_diff(const Options& opt) {
  obs::ToleranceSet tol;
  if (!opt.tolerances_file.empty()) {
    try {
      tol = obs::ToleranceSet::parse(slurp(opt.tolerances_file));
    } catch (const std::runtime_error& e) {
      // Keep the parser's "line N:" position but name the file.
      throw std::runtime_error(opt.tolerances_file + ": " + e.what());
    }
  }
  for (const std::string& flag : opt.tol_flags) tol.add_flag(flag);

  const auto load_report = [](const std::string& path) {
    try {
      return obs::Json::parse(slurp(path));
    } catch (const std::runtime_error& e) {
      throw std::runtime_error(path + ": " + e.what());
    }
  };
  const obs::Json baseline = load_report(opt.file);
  const obs::Json candidate = load_report(opt.file2);
  const obs::DiffResult result = obs::diff_reports(baseline, candidate, tol);
  if (opt.diff_summary) {
    obs::print_diff_summary(std::cout, result);
  } else {
    obs::print_diff(std::cout, result);
  }
  return static_cast<int>(result.outcome);
}

// --- store / sync: the content-addressed artifact store --------------------

int do_store(const Options& opt) {
  const std::string& sub = opt.file;
  const std::string& dir = opt.file2;
  if (sub == "put") {
    store::ObjectStore s(dir, store::ObjectStore::Open::kCreate);
    const std::string name =
        opt.store_name.empty()
            ? std::filesystem::path(opt.file3).filename().string()
            : opt.store_name;
    const store::PutStats st = s.put(name, slurp_bytes(opt.file3));
    std::printf("store: put %s: kind=%s objects=%llu/%llu bytes=%llu/%llu\n",
                st.name.c_str(), store::artifact_kind_name(st.kind),
                static_cast<unsigned long long>(st.objects_new),
                static_cast<unsigned long long>(st.objects_total),
                static_cast<unsigned long long>(st.bytes_new),
                static_cast<unsigned long long>(st.bytes_total));
    return 0;
  }
  if (sub == "get") {
    const store::ObjectStore s(dir, store::ObjectStore::Open::kExisting);
    const std::string bytes = s.get(opt.file3);
    if (opt.out_file.empty()) {
      std::fwrite(bytes.data(), 1, bytes.size(), stdout);
    } else {
      std::ofstream out(opt.out_file, std::ios::binary);
      if (!out) throw std::runtime_error("cannot write " + opt.out_file);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      std::printf("store: get %s: %llu bytes\n", opt.file3.c_str(),
                  static_cast<unsigned long long>(bytes.size()));
    }
    return 0;
  }
  if (sub == "ls") {
    const store::ObjectStore s(dir, store::ObjectStore::Open::kExisting);
    for (const auto& m : s.ls()) {
      std::printf("%s kind=%s objects=%llu bytes=%llu\n", m.name.c_str(),
                  store::artifact_kind_name(m.kind),
                  static_cast<unsigned long long>(m.objects),
                  static_cast<unsigned long long>(m.bytes));
    }
    return 0;
  }
  if (sub == "gc") {
    store::ObjectStore s(dir, store::ObjectStore::Open::kExisting);
    const store::GcStats st = s.gc();
    std::printf("store: gc: removed %llu objects, freed %llu bytes\n",
                static_cast<unsigned long long>(st.objects_removed),
                static_cast<unsigned long long>(st.bytes_freed));
    return 0;
  }
  usage();
  return 1;
}

int do_sync(const Options& opt) {
  const store::ObjectStore src(opt.file, store::ObjectStore::Open::kExisting);
  store::ObjectStore dst(opt.file2, store::ObjectStore::Open::kCreate);
  const store::SyncStats st = store::sync_stores(src, dst);
  std::printf(
      "sync: %s -> %s: manifests=%llu/%llu objects copied=%llu "
      "skipped=%llu bytes=%llu\n",
      opt.file.c_str(), opt.file2.c_str(),
      static_cast<unsigned long long>(st.manifests_copied),
      static_cast<unsigned long long>(st.manifests_total),
      static_cast<unsigned long long>(st.objects_copied),
      static_cast<unsigned long long>(st.objects_skipped),
      static_cast<unsigned long long>(st.bytes_copied));
  return 0;
}

// --- daemon client mode: ship the job to a running cachierd ----------------

int do_daemon_job(const Options& opt) {
  daemon::JobRequest req;
  req.command = opt.command;
  req.name = opt.file;
  req.source = slurp(opt.file);
  if (!opt.plan_file.empty()) req.plan_text = slurp(opt.plan_file);
  req.cfg.nodes = opt.nodes;
  req.cfg.mode = opt.mode;
  req.cfg.faults = opt.faults;
  req.cfg.paranoid = opt.paranoid;
  req.cfg.want_report = !opt.report_file.empty();
  req.cfg.deadline_ms = opt.deadline_ms;

  daemon::ClientOptions copt;
  copt.socket_path = opt.daemon_sock;
  copt.on_status = [](const std::string& state) {
    std::fprintf(stderr, "# cachierd: %s\n", state.c_str());
  };
  // diags are the job's stderr stream (annotate's summary line, lint
  // echoes, self-lint output); replay them verbatim so daemon-mode stderr
  // matches the one-shot run apart from the status lines above.
  copt.on_diag = [](const std::string& text) {
    std::fputs(text.c_str(), stderr);
  };

  const daemon::JobResult res = daemon::submit_job(copt, req);
  std::fputs(res.out.c_str(), stdout);
  if (!opt.report_file.empty() && !res.report.empty()) {
    std::ofstream out = open_out(opt.report_file);
    out << res.report;
  }
  if (res.exit == 2 && !res.error.empty()) {
    std::fprintf(stderr, "cachier: error: %s\n", res.error.c_str());
  }
  return res.exit;
}

int dispatch(const Options& opt) {
  if (opt.command == "version") {
    daemon::version_json().dump(std::cout);
    std::cout << "\n";
    return 0;
  }
  if (!opt.daemon_sock.empty()) return do_daemon_job(opt);
  if (opt.command == "soak") return do_soak(opt);
  if (opt.command == "diff") return do_diff(opt);
  if (opt.command == "store") return do_store(opt);
  if (opt.command == "sync") return do_sync(opt);

  if (opt.command == "trace" && !opt.trace_load.empty()) {
    // Validate-and-reemit: a malformed file fails with exit 2 and a
    // line-numbered message; a good one round-trips canonically.
    std::ifstream in(opt.trace_load);
    if (!in) throw std::runtime_error("cannot open " + opt.trace_load);
    const trace::Trace t = trace::load_text(in);
    trace::save_text(t, std::cout);
    return 0;
  }

  lang::Program prog = lang::parse(slurp(opt.file));
  const bool want_obs = !opt.report_file.empty() || !opt.events_file.empty();

  if (opt.command == "lint") {
    if (opt.fix) {
      const analysis::FixResult res = analysis::apply_fixes(prog);
      std::printf("%s", lang::unparse(res.program).c_str());
      std::fprintf(stderr, "# cachier: fix: %zu fixes in %zu passes\n",
                   res.applied, res.passes);
      for (const std::string& line : res.log) {
        std::fprintf(stderr, "# cachier: fix: %s\n", line.c_str());
      }
      if (!res.lint.diagnostics.empty()) {
        std::ostringstream ss;
        analysis::print_text(ss, opt.file, res.lint);
        std::fprintf(stderr, "# cachier: fix: residual diagnostics:\n%s",
                     ss.str().c_str());
      }
      if (!opt.json_file.empty()) {
        std::ofstream out = open_out(opt.json_file);
        analysis::lint_json(opt.file, res.lint).dump(out);
      }
      // The fix contract is all-or-nothing: anything left unfixed is a
      // hard failure so CI can gate on it.
      return res.lint.diagnostics.empty() ? 0 : 2;
    }
    const analysis::LintResult res = analysis::lint(prog);
    analysis::print_text(std::cout, opt.file, res);
    if (!opt.json_file.empty()) {
      std::ofstream out = open_out(opt.json_file);
      analysis::lint_json(opt.file, res).dump(out);
    }
    return res.exit_code();
  }
  if (opt.command == "run") {
    sim::DirectivePlan plan;
    const sim::DirectivePlan* pp = nullptr;
    if (!opt.plan_file.empty()) {
      std::ifstream in(opt.plan_file);
      if (!in) throw std::runtime_error("cannot open " + opt.plan_file);
      plan = sim::load_plan(in);
      pp = &plan;
    }
    const sim::SimConfig cfg = make_config(opt);
    obs::Collector col;
    col.set_events_enabled(!opt.events_file.empty());
    std::unique_ptr<obs::EpochStreamWriter> stream;
    if (opt.stream_epochs) {
      stream = std::make_unique<obs::EpochStreamWriter>(opt.report_file +
                                                        ".epochs0");
      col.set_epoch_sink(stream.get());
    }
    obs::Json run_j;
    run_program(prog, cfg, /*print_stats=*/true, pp,
                want_obs ? &col : nullptr, &run_j, "run", "epochs0");
    if (!opt.report_file.empty()) {
      std::vector<obs::Json> runs;
      runs.push_back(std::move(run_j));
      const obs::Json rep = obs::make_report(
          "run", obs::config_json(cfg, protocol_name(cfg.protocol), opt.faults),
          std::move(runs));
      std::ofstream out = open_out(opt.report_file);
      if (stream != nullptr) {
        rep.dump(out, [&](std::ostream& os, std::string_view) {
          stream->splice_into(os);
        });
      } else {
        rep.dump(out);
      }
    }
    if (!opt.events_file.empty()) {
      std::ofstream out = open_out(opt.events_file);
      col.write_chrome_trace(out);
    }
    return 0;
  }
  if (opt.command == "plan") {
    Traced t = trace_program(prog, opt.nodes);
    sim::SimConfig cfg;
    cachier::PlanBuilder pb(t.trace, cfg.cache);
    const sim::DirectivePlan plan = pb.build({.mode = opt.mode});
    sim::save_plan(plan, std::cout);
    return 0;
  }
  if (opt.command == "trace") {
    Traced t = trace_program(prog, opt.nodes);
    trace::save_text(t.trace, std::cout);
    return 0;
  }
  if (opt.command == "report") {
    Traced t = trace_program(prog, opt.nodes);
    std::printf("%s", t.report.c_str());
    return 0;
  }
  if (opt.command == "annotate") {
    srcann::AnnotateResult res =
        opt.static_mode
            ? srcann::annotate_static(
                  prog, opt.nodes,
                  {.mode = opt.mode, .prefetch = opt.prefetch})
            : annotate_program(prog, opt.nodes, opt.mode);
    std::printf("%s", lang::unparse(res.program).c_str());
    std::fprintf(stderr,
                 "# cachier: %zu annotations, %zu generated loops, %zu "
                 "dropped, %zu races, %zu false-sharing blocks\n",
                 res.inserted, res.generated_loops, res.dropped, res.races,
                 res.false_shares);
    // Self-lint oracle: Cachier's own output must satisfy the CICO rules.
    // A diagnostic here is an annotator bug, so errors fail the command.
    if (!res.lint.diagnostics.empty()) {
      std::ostringstream ss;
      analysis::print_text(ss, "<annotated>", res.lint);
      std::fprintf(stderr, "# cachier: self-lint:\n%s", ss.str().c_str());
      if (res.lint.exit_code() == 2) return 2;
    }
    return 0;
  }
  if (opt.command == "compare") {
    srcann::AnnotateResult res = annotate_program(prog, opt.nodes, opt.mode);
    lang::Program annotated = lang::parse(lang::unparse(res.program));
    const sim::SimConfig cfg = make_config(opt);
    obs::Collector base_col;
    obs::Collector anno_col;
    // --events on compare exports the ANNOTATED run (one trace per file).
    anno_col.set_events_enabled(!opt.events_file.empty());
    std::unique_ptr<obs::EpochStreamWriter> base_stream;
    std::unique_ptr<obs::EpochStreamWriter> anno_stream;
    if (opt.stream_epochs) {
      base_stream = std::make_unique<obs::EpochStreamWriter>(opt.report_file +
                                                             ".epochs0");
      anno_stream = std::make_unique<obs::EpochStreamWriter>(opt.report_file +
                                                             ".epochs1");
      base_col.set_epoch_sink(base_stream.get());
      anno_col.set_epoch_sink(anno_stream.get());
    }
    obs::Json base_j;
    obs::Json anno_j;
    std::printf("-- unannotated --\n");
    const Cycle base = run_program(prog, cfg, true, nullptr,
                                   want_obs ? &base_col : nullptr, &base_j,
                                   "baseline", "epochs0");
    std::printf("-- %s CICO (%zu annotations) --\n",
                cachier::mode_name(opt.mode), res.inserted);
    const Cycle anno = run_program(annotated, cfg, true, nullptr,
                                   want_obs ? &anno_col : nullptr, &anno_j,
                                   "annotated", "epochs1");
    std::printf("\nnormalized execution time: %.3f\n",
                static_cast<double>(anno) / static_cast<double>(base));
    if (!opt.report_file.empty()) {
      const obs::Json cmp = obs::comparison_json(base_j, anno_j);
      std::vector<obs::Json> runs;
      runs.push_back(std::move(base_j));
      runs.push_back(std::move(anno_j));
      obs::Json rep = obs::make_report(
          "compare",
          obs::config_json(cfg, protocol_name(cfg.protocol), opt.faults),
          std::move(runs));
      rep.set("comparison", cmp);
      std::ofstream out = open_out(opt.report_file);
      if (base_stream != nullptr) {
        rep.dump(out, [&](std::ostream& os, std::string_view id) {
          (id == "epochs0" ? *base_stream : *anno_stream).splice_into(os);
        });
      } else {
        rep.dump(out);
      }
    }
    if (!opt.events_file.empty()) {
      std::ofstream out = open_out(opt.events_file);
      anno_col.write_chrome_trace(out);
    }
    return 0;
  }
  usage();
  return 1;
}

}  // namespace

/// Parses argv into `opt`.  Returns -1 on success, or the exit code to
/// return for a usage error (usage already printed).  Malformed numeric
/// values THROW (parse_num), so the caller's catch maps them to exit 2 --
/// a flag the user got structurally right but numerically wrong is a
/// program error, not a usage error.
int parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-n" && i + 1 < argc) {
      opt.nodes = parse_num<std::uint32_t>(argv[++i], "-n node count");
    } else if (arg == "--mode" && i + 1 < argc) {
      const std::string m = argv[++i];
      if (m == "programmer") opt.mode = cachier::Mode::Programmer;
      else if (m == "performance") opt.mode = cachier::Mode::Performance;
      else {
        usage();
        return 1;
      }
    } else if (arg == "--faults" && i + 1 < argc) {
      opt.faults = argv[++i];
    } else if (arg == "--paranoid") {
      opt.paranoid = true;
    } else if (arg == "--no-audit-memo") {
      opt.audit_memo = false;
    } else if (arg == "--plan" && i + 1 < argc) {
      opt.plan_file = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      opt.report_file = argv[++i];
    } else if (arg == "--events" && i + 1 < argc) {
      opt.events_file = argv[++i];
    } else if (arg == "--stream-epochs") {
      opt.stream_epochs = true;
    } else if (arg == "--tolerances" && i + 1 < argc) {
      opt.tolerances_file = argv[++i];
    } else if (arg == "--tol" && i + 1 < argc) {
      opt.tol_flags.emplace_back(argv[++i]);
    } else if (arg == "--summary") {
      opt.diff_summary = true;
    } else if (arg == "--json" && i + 1 < argc) {
      opt.json_file = argv[++i];
    } else if (arg == "--static") {
      opt.static_mode = true;
    } else if (arg == "--fix") {
      opt.fix = true;
    } else if (arg == "--prefetch") {
      opt.prefetch = true;
    } else if (arg == "--load" && i + 1 < argc) {
      opt.trace_load = argv[++i];
    } else if (arg == "--name" && i + 1 < argc) {
      opt.store_name = argv[++i];
    } else if (arg == "-o" && i + 1 < argc) {
      opt.out_file = argv[++i];
    } else if (arg == "--daemon" && i + 1 < argc) {
      opt.daemon_sock = argv[++i];
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      opt.deadline_ms =
          parse_num<std::uint64_t>(argv[++i], "--deadline-ms value");
    } else if (arg == "--campaigns" && i + 1 < argc) {
      opt.campaigns = parse_num<std::uint32_t>(argv[++i], "--campaigns value");
    } else if (arg == "--seed" && i + 1 < argc) {
      opt.seed = parse_num<std::uint64_t>(argv[++i], "--seed value");
    } else if (opt.command.empty()) {
      opt.command = arg;
    } else if (opt.file.empty()) {
      opt.file = arg;
    } else if ((opt.command == "diff" || opt.command == "store" ||
                opt.command == "sync") &&
               opt.file2.empty()) {
      opt.file2 = arg;
    } else if (opt.command == "store" && opt.file3.empty()) {
      opt.file3 = arg;
    } else {
      usage();
      return 1;
    }
  }
  const bool needs_file =
      opt.command != "soak" && opt.command != "version" &&
      !(opt.command == "trace" && !opt.trace_load.empty());
  // Daemon mode ships exactly the deterministic job surface: commands the
  // protocol knows, minus local-only side channels (events export, epoch
  // streaming, lint --json, trace --load all write/read local files the
  // daemon cannot see).
  const bool daemon_ok =
      opt.daemon_sock.empty() ||
      (daemon::known_command(opt.command) && opt.events_file.empty() &&
       !opt.stream_epochs && opt.json_file.empty() && opt.trace_load.empty() &&
       !opt.static_mode && !opt.fix && !opt.prefetch);
  // store's positional grammar: put/get take <dir> <arg>; ls/gc take <dir>.
  const bool store_ok =
      opt.command != "store" ||
      (!opt.file2.empty() &&
       ((opt.file == "put" || opt.file == "get") ? !opt.file3.empty()
        : (opt.file == "ls" || opt.file == "gc") && opt.file3.empty()));
  if (opt.command.empty() || (needs_file && opt.file.empty()) ||
      opt.nodes == 0 ||
      (opt.command == "soak" && opt.campaigns == 0) ||
      (opt.command == "diff" && opt.file2.empty()) ||
      (opt.command == "sync" && opt.file2.empty()) || !store_ok ||
      // Streaming only makes sense while a report is being written.
      (opt.stream_epochs && opt.report_file.empty()) || !daemon_ok ||
      (opt.static_mode && opt.command != "annotate") ||
      (opt.fix && opt.command != "lint") ||
      (opt.prefetch && !opt.static_mode) ||
      (opt.deadline_ms != 0 && opt.daemon_sock.empty())) {
    usage();
    return 1;
  }
  return -1;
}

int main(int argc, char** argv) {
  // Exit-code contract: EVERY failure below -- malformed numeric flags,
  // MiniPar parse errors, bad fault specs, malformed plans or traces,
  // SimDeadlock, ProtocolTimeout, InvariantViolation, soak failures --
  // surfaces as exit 2 with one line on stderr, never an unhandled
  // terminate.  Structural usage errors still exit 1.
  try {
    Options opt;
    const int usage_exit = parse_args(argc, argv, opt);
    if (usage_exit >= 0) return usage_exit;
    return dispatch(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cachier: error: %s\n", e.what());
    return 2;
  }
}

// cachier -- the command-line tool (synopsis: usage() below and README).
//
// Program commands drive the paper's pipeline (Fig. 1) on a MiniPar file:
//   annotate   trace the unannotated program and print it with Cachier's
//              CICO annotations (the core use case); --static plans them
//              trace-free from static analysis (docs/static_analysis.md),
//              --prefetch adds prefetch_S of shared-read sets
//   lint       CICO typestate check with file:line:col diagnostics (exit
//              0 clean / 1 warnings / 2 errors); --json writes the
//              diffable document; --fix prints the repaired source and
//              exits 0 only when it lints clean
//   run        simulate and print execution statistics (--plan applies a
//              directive plan; --faults, --paranoid)
//   compare    annotate, run both versions, print the normalized time
//   plan       print the Cachier directive plan (`run --plan` loads it)
//   report     print the data-race / false-sharing report
//   trace      print the Fig. 3 trace; `trace --load f` validates a saved
//              text trace and re-emits it canonically
// run / compare also take `--report f` (versioned JSON run report) and
// `--events f` (Chrome trace-event export), both pure functions of
// simulated state (docs/observability.md).
//
// Every program command parses into a daemon::JobRequest and runs through
// daemon::run_job (src/cico/daemon/job.hpp) -- in-process by default, or
// by a running cachierd with `--daemon <sock>` (docs/cachierd.md).  Either
// way this file only prints the job's stdout, replays its diagnostics to
// stderr and writes its report / events bytes to the files the flags
// name, so daemon output is byte-identical to a one-shot run, cached or
// fresh.  The client streams status lines to stderr, honors
// `--deadline-ms`, and retries a busy or not-yet-listening daemon with
// backoff.  `trace --load` names a client-local file and runs in-process
// only.
//
// Local commands: `soak` (seeded fault campaigns over the bundled apps,
// each run twice to check determinism; failing campaigns leave a repro
// spec; SIGINT/SIGTERM stops between runs with exit 3), `diff` (schema-
// aware report diff, the CI regression gate: exit 0 identical / 1 within
// tolerance / 2 regression), `store` put/get/ls/gc and `sync` (the
// content-addressed artifact store, docs/trace_store.md), and `version`
// (the identity document the cachierd handshake exchanges).
//
// Exit status: 0 on success, 1 on usage errors, 2 on program errors
// (malformed numeric flags, parse errors, bad trace files, SimDeadlock,
// ProtocolTimeout, InvariantViolation, failed soak campaigns) -- every
// std::exception maps to exit 2 with a one-line `cachier: error: ...` on
// stderr.  A version mismatch at the daemon handshake is exit 2 too.
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
#include "cico/cachier/chooser.hpp"
#include "cico/common/parse_num.hpp"
#include "cico/daemon/client.hpp"
#include "cico/daemon/job.hpp"
#include "cico/daemon/protocol.hpp"
#include "cico/obs/diff.hpp"
#include "cico/sim/machine.hpp"
#include "cico/store/store.hpp"
#include "cico/trace/trace.hpp"
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
  /// -n, --mode, --faults (soak too), --paranoid, --static, --prefetch,
  /// --fix, --deadline-ms: the job's config as given on the command line
  daemon::JobConfig cfg;
  std::string plan_file;        ///< run --plan <file>
  std::uint32_t campaigns = 10; ///< soak campaigns
  std::uint64_t seed = 1;       ///< soak base seed
  std::string report_file;      ///< run/compare --report <file>
  std::string events_file;      ///< run/compare --events <file>
  std::string trace_load;       ///< trace --load <file>
  std::string tolerances_file;  ///< diff --tolerances <file>
  std::vector<std::string> tol_flags;  ///< diff --tol pattern=spec
  bool diff_summary = false;    ///< diff --summary (one-line verdict)
  std::string json_file;        ///< lint --json <file>
  std::string daemon_sock;      ///< --daemon <sock>: send to cachierd
};

void usage() {
  std::fprintf(
      stderr,
      "usage: cachier <annotate|run|plan|report|compare|trace> prog.mp\n"
      "               [-n nodes] [--mode programmer|performance]\n"
      "               [--plan file] [--faults spec] [--paranoid]\n"
      "               [--report out.json] [--events out.json]\n"
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

/// Byte-exact read (store artifacts such as v2 traces contain raw bytes);
/// throws on failure (maps to exit 2).
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
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
    std::string spec = opt.cfg.faults.empty()
                           ? std::string(kSoakMixes[c % n_mixes]) +
                                 ",retries=0,throttle=4"
                           : opt.cfg.faults;
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
    const store::PutStats st = s.put(name, slurp(opt.file3));
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

// --- program commands: one job, run in-process or by cachierd -------------

/// Where the job's report payload goes: lint's --json document, else the
/// run/compare --report.
const std::string& report_path(const Options& opt) {
  return opt.command == "lint" ? opt.json_file : opt.report_file;
}

daemon::JobRequest make_request(const Options& opt) {
  daemon::JobRequest req;
  req.command = opt.command;
  req.name = opt.file;
  req.source = slurp(opt.file);
  if (!opt.plan_file.empty()) req.plan_text = slurp(opt.plan_file);
  req.cfg = opt.cfg;
  req.cfg.want_report = !report_path(opt).empty();
  req.cfg.want_events = !opt.events_file.empty();
  return req;
}

/// Writes a result payload to the file its flag names, or throws (maps
/// to exit 2).  Nothing when the job produced none (it failed).
void write_payload(const std::string& path, const std::string& bytes) {
  if (path.empty() || bytes.empty()) return;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << bytes;
}

int do_job(const Options& opt) {
  const daemon::JobRequest req = make_request(opt);
  daemon::JobResult res;
  if (opt.daemon_sock.empty()) {
    res = daemon::run_job(req);
    for (const std::string& d : res.diags) std::fputs(d.c_str(), stderr);
  } else {
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
    res = daemon::submit_job(copt, req);
  }
  std::fputs(res.out.c_str(), stdout);
  // Host wall-clock is inherently nondeterministic, so it goes to stderr:
  // stdout stays byte-identical run to run.
  std::fputs(res.host.c_str(), stderr);
  write_payload(report_path(opt), res.report);
  write_payload(opt.events_file, res.events);
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
  if (daemon::known_command(opt.command)) return do_job(opt);
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
      opt.cfg.nodes = parse_num<std::uint32_t>(argv[++i], "-n node count");
    } else if (arg == "--mode" && i + 1 < argc) {
      const std::string m = argv[++i];
      if (m == "programmer") opt.cfg.mode = cachier::Mode::Programmer;
      else if (m == "performance") opt.cfg.mode = cachier::Mode::Performance;
      else {
        usage();
        return 1;
      }
    } else if (arg == "--faults" && i + 1 < argc) {
      opt.cfg.faults = argv[++i];
    } else if (arg == "--paranoid") {
      opt.cfg.paranoid = true;
    } else if (arg == "--plan" && i + 1 < argc) {
      opt.plan_file = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      opt.report_file = argv[++i];
    } else if (arg == "--events" && i + 1 < argc) {
      opt.events_file = argv[++i];
    } else if (arg == "--tolerances" && i + 1 < argc) {
      opt.tolerances_file = argv[++i];
    } else if (arg == "--tol" && i + 1 < argc) {
      opt.tol_flags.emplace_back(argv[++i]);
    } else if (arg == "--summary") {
      opt.diff_summary = true;
    } else if (arg == "--json" && i + 1 < argc) {
      opt.json_file = argv[++i];
    } else if (arg == "--static") {
      opt.cfg.static_mode = true;
    } else if (arg == "--fix") {
      opt.cfg.fix = true;
    } else if (arg == "--prefetch") {
      opt.cfg.prefetch = true;
    } else if (arg == "--load" && i + 1 < argc) {
      opt.trace_load = argv[++i];
    } else if (arg == "--name" && i + 1 < argc) {
      opt.store_name = argv[++i];
    } else if (arg == "-o" && i + 1 < argc) {
      opt.out_file = argv[++i];
    } else if (arg == "--daemon" && i + 1 < argc) {
      opt.daemon_sock = argv[++i];
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      opt.cfg.deadline_ms =
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
  // Daemon mode serves every program command.  Only trace --load stays
  // local: it names a client-local trace file.
  const bool daemon_ok =
      opt.daemon_sock.empty() ||
      (daemon::known_command(opt.command) && opt.trace_load.empty());
  // store's positional grammar: put/get take <dir> <arg>; ls/gc take <dir>.
  const bool store_ok =
      opt.command != "store" ||
      (!opt.file2.empty() &&
       ((opt.file == "put" || opt.file == "get") ? !opt.file3.empty()
        : (opt.file == "ls" || opt.file == "gc") && opt.file3.empty()));
  if (opt.command.empty() || (needs_file && opt.file.empty()) ||
      opt.cfg.nodes == 0 ||
      (opt.command == "soak" && opt.campaigns == 0) ||
      (opt.command == "diff" && opt.file2.empty()) ||
      (opt.command == "sync" && opt.file2.empty()) || !store_ok ||
      !daemon_ok ||
      (opt.cfg.static_mode && opt.command != "annotate") ||
      (opt.cfg.fix && opt.command != "lint") ||
      (opt.cfg.prefetch && !opt.cfg.static_mode) ||
      (opt.cfg.deadline_ms != 0 && opt.daemon_sock.empty())) {
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

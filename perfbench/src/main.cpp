// perfbench: the end-to-end benchmark.
//
//   perfbench --workload pipeline|static|daemon --seed N --seconds S
//             --trace 0|1
//
// Run from the repository root: inputs are read from examples/, temporary
// files go to .bench_run/ (removed at exit), span traces to .bench_out/.
// Sets the workload up three times (set-up time is the median), checks
// that its oracles catch a deliberately corrupted output, then runs its
// closed loop for S seconds.  With --trace 1 the first half of the time
// runs untraced and the second half records spans, so the run reports the
// per-layer table and the tracing overhead against the untraced half.
// Human-readable lines go first; the last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "measure.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

constexpr int kSetupReps = 3;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Span-timed layers: reported as `<span>_ms`, total span time in
/// milliseconds per operation.  bench.op is the whole operation.
constexpr const char* kSpanLayers[] = {
    "lang.parse",         "lang.unparse",           "sim.trace_run",
    "sim.measure_run",    "trace.encode_v2",        "trace.decode_v2",
    "store.put",          "store.get",              "cachier.sharing",
    "cachier.plan_build", "srcann.annotate",        "srcann.annotate_static",
    "analysis.plan_static", "analysis.lint",        "analysis.fix",
    "obs.report",         "daemon.submit",          "bench.op",
};

/// Host-side quantities summed during the traced phase, per operation.
constexpr MetricDef kSumLayers[] = {
    {"sim.boundary_ms", "ms"}, {"sim.window_ms", "ms"},
    {"sim.user_ms", "ms"},     {"sim.sys_ms", "ms"},
    {"sim.ctx_switches", "count"},
};

/// Values reported as they are: rates, ratios, and the deterministic
/// per-pass counts.
constexpr MetricDef kValueLayers[] = {
    {"sim.maccess_per_s", "M/s"},
    {"daemon.queue_wait_ms", "ms"},
    {"daemon.service_hit_ms", "ms"},
    {"daemon.service_miss_ms", "ms"},
    {"daemon.hit_ratio", "ratio"},
    {"daemon.disk_load_ratio", "ratio"},
    {"daemon.shed_retries", "count"},
};

constexpr MetricDef kCountLayers[] = {
    {"sim.accesses", "count"},     {"sim.boundary_rounds", "count"},
    {"proto.traps", "count"},      {"net.messages", "count"},
    {"trace.records", "count"},    {"trace.v2_bytes", "bytes"},
    {"srcann.directives", "count"}, {"analysis.fix_passes", "count"},
    {"norm_time_geomean", "ratio"},
};

/// Pins the process (and every thread it starts later) to the last `n`
/// CPUs it may run on; returns how many it got.
unsigned pin_cpus(unsigned n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (n == 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 0;
  cpu_set_t want;
  CPU_ZERO(&want);
  unsigned got = 0;
  for (int c = CPU_SETSIZE - 1; c >= 0 && got < n; --c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &want);
      ++got;
    }
  }
  return sched_setaffinity(0, sizeof(want), &want) == 0 ? got : 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_line(bool correct, std::uint64_t attempted,
                      std::uint64_t failed, const std::vector<Metric>& ms) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", ms[i].value);
    out += (i == 0 ? "\"" : ", \"") + ms[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}}";
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else throw std::runtime_error("unknown argument " + k);
  }
  if (argc % 2 != 1 || a.workload.empty() || a.seconds <= 0) {
    throw std::runtime_error(
        "usage: perfbench --workload pipeline|static|daemon --seed N "
        "--seconds S --trace 0|1");
  }
  return a;
}

/// Removes the per-process work directory on every exit path.
struct WorkDir {
  std::string path;
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

int run(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  WorkDir work{args.work_dir + "/" + std::to_string(::getpid())};
  std::filesystem::create_directories(work.path);
  args.work_dir = work.path;

  std::unique_ptr<Workload> w;
  if (args.workload == "pipeline") w = make_pipeline(args);
  else if (args.workload == "static") w = make_static(args);
  else if (args.workload == "daemon") w = make_daemon(args);
  else throw std::runtime_error("unknown workload " + args.workload);

#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::cout << "perfbench workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n"
            << "host: cores=" << std::thread::hardware_concurrency()
            << " pinned_cpus=" << pin_cpus(w->cpus())
            << " build=" << PERFBENCH_BUILD_TYPE
            << " optimized=" << (optimized ? "yes" : "NO") << "\n";
  if (!optimized) {
    std::cout << "WARNING: built without optimization; timings are not "
                 "comparable\n";
  }

  std::vector<double> setups;
  for (int r = 0; r < kSetupReps; ++r) {
    if (r > 0) w->teardown();
    const auto t0 = Clock::now();
    w->setup();
    setups.push_back(ms_since(t0) / 1e3);
  }
  std::vector<std::string> notes;
  bool correct = w->self_check(notes);

  Phase main_phase;
  Phase traced;
  if (args.trace) {
    main_phase = w->measure(args.seconds / 2);
    Tracer::instance().enable(true);
    traced = w->measure(args.seconds / 2);
    Tracer::instance().enable(false);
  } else {
    main_phase = w->measure(args.seconds);
  }
  const std::map<std::string, double> counts = w->counts();
  const std::string digest = w->digest();
  correct = correct && w->correct();
  w->teardown();

  const Phase& e2e = main_phase;
  const double done = static_cast<double>(e2e.op_ms.size());
  const Rusage end = Rusage::now();
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", percentile(setups, 0.5), "s"},
        {"ops_per_s", percentile(e2e.batch_rate, 0.5), "1/s"},
        {"op_ms_p50", percentile(e2e.op_ms, 0.5), "ms"},
        {"op_ms_p90", percentile(e2e.op_ms, 0.9), "ms"},
        {"cpu_ms_per_op", percentile(e2e.batch_cpu_ms, 0.5), "ms"},
        {"peak_rss_mb", end.maxrss_mb, "MB"},
    };
  } else {
    const double ops = std::max<double>(1, traced.op_ms.size());
    const std::map<std::string, LayerTotals> layers =
        Tracer::instance().layers();
    std::cout << "per-layer spans (traced half, " << traced.op_ms.size()
              << " operations):\n";
    std::printf("  %-26s %10s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto& [name, l] : layers) {
      std::printf("  %-26s %10llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(l.count), l.total_ms,
                  l.self_ms);
    }
    if (layers.count("srcann.annotate") + layers.count("srcann.annotate_static")) {
      std::cout << "  (srcann.annotate and srcann.annotate_static re-run "
                   "their own analysis passes inside; do not add\n"
                   "   cachier.sharing or analysis.plan_static to them as "
                   "wall time)\n";
    }
    for (const char* name : kSpanLayers) {
      const auto it = layers.find(name);
      metrics.push_back({std::string(name) + "_ms",
                         it == layers.end() ? 0 : it->second.total_ms / ops,
                         "ms"});
    }
    for (const MetricDef& d : kSumLayers) {
      const auto it = traced.layer_sums.find(d.name);
      metrics.push_back(
          {d.name, it == traced.layer_sums.end() ? 0 : it->second / ops,
           d.unit});
    }
    for (const MetricDef& d : kValueLayers) {
      const auto it = traced.layer_values.find(d.name);
      metrics.push_back(
          {d.name, it == traced.layer_values.end() ? 0 : it->second, d.unit});
    }
    for (const MetricDef& d : kCountLayers) {
      const auto it = counts.find(d.name);
      metrics.push_back({d.name, it == counts.end() ? 0 : it->second, d.unit});
    }
    const double untraced_rate = done / e2e.wall_s;
    const double traced_rate =
        static_cast<double>(traced.op_ms.size()) / traced.wall_s;
    const double overhead = 100.0 * (untraced_rate / traced_rate - 1.0);
    metrics.push_back({"bench.trace_overhead_pct", overhead, "%"});
    std::cout << "tracing overhead: " << overhead << "% (untraced "
              << untraced_rate << " ops/s, traced " << traced_rate
              << " ops/s)\n";
    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    std::ofstream out(path);
    Tracer::instance().write_chrome_trace(out);
    std::cout << "span trace (Chrome trace-event JSON): " << path << "\n";
  }

  std::vector<std::string> table;
  w->describe(args.trace ? traced : main_phase, table);
  std::uint64_t attempted = main_phase.attempted + traced.attempted;
  std::uint64_t failed = main_phase.failed + traced.failed;
  std::cout << "setup_s " << percentile(setups, 0.5) << " s (median of "
            << kSetupReps << ")\n"
            << "operations " << done << " in " << e2e.wall_s
            << " s; op_ms p50 " << percentile(e2e.op_ms, 0.5) << " p90 "
            << percentile(e2e.op_ms, 0.9) << " p99 "
            << percentile(e2e.op_ms, 0.99) << " (" << e2e.op_ms.size()
            << " samples)\n"
            << "batches " << e2e.batch_rate.size() << ": ops_per_s p25 "
            << percentile(e2e.batch_rate, 0.25) << " p50 "
            << percentile(e2e.batch_rate, 0.5) << " p75 "
            << percentile(e2e.batch_rate, 0.75) << "\n"
            << "error_rate " << static_cast<double>(failed) /
                                    static_cast<double>(std::max<std::uint64_t>(1, attempted))
            << " ratio (" << failed << " of " << attempted << ")\n"
            << "rusage: user_ms=" << e2e.ru.user_ms
            << " sys_ms=" << e2e.ru.sys_ms << " vol_cs=" << e2e.ru.vol_cs
            << " invol_cs=" << e2e.ru.invol_cs
            << " max_rss_mb=" << end.maxrss_mb << "\n";
  for (const std::string& line : table) std::cout << line << "\n";
  for (const std::string& line : notes) std::cout << line << "\n";
  // Identical on every run with this seed, on any host: compare exactly.
  std::cout << "determinism: digest=" << digest << std::setprecision(17);
  for (const auto& [k, v] : counts) std::cout << " " << k << "=" << v;
  std::cout << "\n";
  std::cout << json_line(correct, attempted, failed, metrics) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 2;
  }
}

// Shared measurement plumbing: arguments, resource usage, the closed-loop
// phase record every workload returns, and the workload interface.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_run";  ///< temporary files, removed at exit
  std::string out_dir = ".bench_out";   ///< kept artifacts (span traces)
};

/// getrusage(RUSAGE_SELF) snapshot; differences give per-phase cost.
struct Rusage {
  double user_ms = 0;
  double sys_ms = 0;
  double vol_cs = 0;    ///< voluntary context switches
  double invol_cs = 0;  ///< involuntary context switches
  double maxrss_mb = 0;

  static Rusage now();
  Rusage operator-(const Rusage& o) const;
};

/// One closed-loop measurement phase.
struct Phase {
  std::vector<double> op_ms;  ///< latency of every completed operation
  double wall_s = 0;
  Rusage ru;                  ///< resource usage during the phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Completed operations per second and CPU ms per operation of each
  /// batch of consecutive operations (see Batcher).
  std::vector<double> batch_rate;
  std::vector<double> batch_cpu_ms;
  /// Host-side layer quantities summed over the phase (divided by the
  /// completed operation count when reported).
  std::map<std::string, double> layer_sums;
  /// Layer quantities reported as they are (ratios, rates).
  std::map<std::string, double> layer_values;
};

/// Cuts a single-caller closed loop into batches of `size` operations and
/// books each batch's rate and CPU cost into the phase.  The workloads
/// report medians over batches: on a shared machine a burst of host
/// interference then slows one batch instead of moving the whole run.
class Batcher {
 public:
  explicit Batcher(std::size_t size)
      : size_(size), t0_(std::chrono::steady_clock::now()),
        r0_(Rusage::now()) {}
  /// Call after every operation, failed or not.
  void op_done(Phase& ph);

 private:
  std::size_t size_;
  std::size_t n_ = 0;
  std::size_t done0_ = 0;
  std::chrono::steady_clock::time_point t0_;
  Rusage r0_;
};

/// A workload: repeatable set-up, then a closed loop timed for a fixed
/// number of seconds.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates inputs and prepares every resource the loop needs.  Called
  /// several times (the reported set-up time is the median); teardown()
  /// runs between calls.
  virtual void setup() = 0;
  virtual void teardown() {}
  /// Checks that the workload's oracles catch a deliberately wrong output.
  /// Returns false when the corrupted output went unnoticed.
  virtual bool self_check(std::vector<std::string>& notes) = 0;
  /// Runs the closed loop for `seconds`; must also complete at least one
  /// pass over the generated inputs, so the deterministic counts exist.
  virtual Phase measure(double seconds) = 0;
  /// Deterministic per-pass counts (identical on every run with a seed).
  virtual std::map<std::string, double> counts() = 0;
  /// Digest of every output of the first pass (determinism guard).
  virtual std::string digest() = 0;
  /// False when an oracle or the in-run determinism check failed.
  virtual bool correct() = 0;
  /// Extra human-readable lines for the result table.
  virtual void describe(const Phase& p, std::vector<std::string>& out) = 0;
  /// CPUs the process is pinned to (0 = no pinning).
  [[nodiscard]] virtual unsigned cpus() const = 0;
};

std::unique_ptr<Workload> make_pipeline(const Args& a);
std::unique_ptr<Workload> make_static(const Args& a);
std::unique_ptr<Workload> make_daemon(const Args& a);

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q);

double ms_since(std::chrono::steady_clock::time_point t0);

/// Reads a whole file; throws std::runtime_error when it cannot.
std::string read_file(const std::string& path);

}  // namespace perfbench

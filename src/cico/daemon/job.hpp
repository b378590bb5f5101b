// Job model shared by cachierd and the `cachier --daemon` client mode.
//
// A job is one CLI-equivalent request: a command (annotate / lint / run /
// trace / report / plan), the MiniPar source, an optional pre-recorded
// miss trace, an optional directive plan, and the deterministic subset of
// the simulator configuration.  run_job() executes it IN-PROCESS and
// returns the exact bytes a one-shot `cachier <command>` would have
// printed -- that equivalence is the content-addressed cache's contract
// (a cache hit must be indistinguishable from a fresh run) and is pinned
// by tests/integration/daemon_cli_test.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cico/cachier/chooser.hpp"
#include "cico/obs/json.hpp"
#include "cico/sim/config.hpp"

namespace cico::sim {
class Machine;
}

namespace cico::daemon {

/// Deterministic job configuration (everything that can change the output
/// bytes, plus the deadline, which deliberately cannot).
struct JobConfig {
  std::uint32_t nodes = 8;
  cachier::Mode mode = cachier::Mode::Performance;
  std::string faults;        ///< FaultSpec text; empty = faults disabled
  bool paranoid = false;
  bool want_report = false;  ///< produce the --report JSON in JobResult
  /// Wall-clock budget for this job in milliseconds; 0 = server default.
  /// NOT part of the cache key: it bounds host time, not simulated state.
  std::uint64_t deadline_ms = 0;
};

struct JobRequest {
  std::string command;     ///< annotate|lint|run|trace|report|plan
  std::string name;        ///< client-side file name (appears in lint text)
  std::string source;      ///< MiniPar source text
  std::string trace_text;  ///< optional saved trace (annotate/plan reuse it)
  std::string plan_text;   ///< optional directive plan (run)
  JobConfig cfg;
};

struct JobResult {
  int exit = 0;            ///< the CLI exit contract: 0 ok / 1 warn / 2 error
  bool cached = false;     ///< served from the result cache
  bool cancelled = false;  ///< deadline expired or client gone; never cached
  std::string key;         ///< content-addressed cache key (hex)
  std::string out;         ///< deterministic stdout bytes
  std::string report;      ///< --report JSON bytes (want_report)
  std::string error;       ///< program-error message (exit == 2)
  std::vector<std::string> diags;  ///< stderr lines, in emit order
};

/// True for the commands a daemon job may name.
[[nodiscard]] bool known_command(std::string_view cmd);

/// Content-addressed cache key: a 128-bit hash over (command, name,
/// source, trace, plan, deterministic config).  deadline_ms is excluded:
/// it bounds host time only, so cached results are shared across
/// deadlines.
[[nodiscard]] std::string cache_key(const JobRequest& req);

/// Executes the job in-process.  `cancel` (may be null) is polled at
/// every simulator window boundary; once true the run aborts and the
/// result comes back cancelled (exit 2, never cacheable).  All other
/// failures -- parse errors, fault-injection timeouts, deadlocks -- map
/// to exit 2 with the error message, exactly like the CLI's catch-all.
[[nodiscard]] JobResult run_job(const JobRequest& req,
                                const std::atomic<bool>* cancel = nullptr);

/// The deterministic stats block `cachier run` prints (shared so the CLI
/// and daemon emit identical bytes; the nondeterministic host wall-clock
/// line stays on the CLI's stderr).
[[nodiscard]] std::string format_run_stats(const sim::Machine& m,
                                           const sim::SimConfig& cfg);

// --- JSON (de)serialization ------------------------------------------------

/// Submit frame for a request (protocol.hpp's conversation).
[[nodiscard]] obs::Json submit_frame(const JobRequest& req);
/// Parses a submit frame; throws std::runtime_error on malformed fields.
[[nodiscard]] JobRequest parse_submit(const obs::Json& frame);

/// Result frame (diags ride along so a cache hit can replay them).
[[nodiscard]] obs::Json result_frame(const JobResult& res);
[[nodiscard]] JobResult parse_result(const obs::Json& frame);

/// Persistent cache-entry form (no type tag; cached/cancelled excluded).
[[nodiscard]] obs::Json job_result_json(const JobResult& res);
[[nodiscard]] JobResult job_result_from_json(const obs::Json& doc);

}  // namespace cico::daemon

// The command core shared by the `cachier` CLI and cachierd.
//
// A job is one program command (annotate, lint, run, compare, trace,
// report, plan) over a MiniPar source, an optional directive plan, and
// the deterministic subset of the simulator configuration.  run_job() is
// the only code that executes one: the one-shot CLI calls it in-process,
// cachierd in a worker, and both print the same bytes.  That equivalence
// is the content-addressed cache's contract (a cache hit must be
// indistinguishable from a fresh run), pinned by
// tests/integration/daemon_cli_test.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cico/cachier/chooser.hpp"
#include "cico/obs/json.hpp"

namespace cico::daemon {

/// Deterministic job configuration (everything that can change the output
/// bytes, plus the deadline, which deliberately cannot).
struct JobConfig {
  std::uint32_t nodes = 8;
  cachier::Mode mode = cachier::Mode::Performance;
  std::string faults;        ///< FaultSpec text; empty = faults disabled
  bool paranoid = false;
  bool static_mode = false;  ///< annotate --static: trace-free planning
  bool prefetch = false;     ///< annotate --static --prefetch
  bool fix = false;          ///< lint --fix: print the fixed source
  bool want_report = false;  ///< run/compare --report, lint --json
  bool want_events = false;  ///< run/compare --events (Chrome trace)
  /// Wall-clock budget for this job in milliseconds; 0 = server default.
  /// NOT part of the cache key: it bounds host time, not simulated state.
  std::uint64_t deadline_ms = 0;
};

struct JobRequest {
  std::string command;     ///< annotate|lint|run|compare|trace|report|plan
  std::string name;        ///< client-side file name (appears in lint text)
  std::string source;      ///< MiniPar source text
  std::string plan_text;   ///< optional directive plan (run)
  JobConfig cfg;
};

struct JobResult {
  int exit = 0;            ///< the CLI exit contract: 0 ok / 1 warn / 2 error
  bool cached = false;     ///< served from the result cache
  bool cancelled = false;  ///< deadline expired or client gone; never cached
  std::string key;         ///< content-addressed cache key (hex)
  std::string out;         ///< deterministic stdout bytes
  std::string report;      ///< --report / lint --json bytes (want_report)
  std::string events;      ///< --events Chrome trace bytes (want_events)
  std::string error;       ///< program-error message (exit == 2)
  std::vector<std::string> diags;  ///< stderr lines, in emit order
  /// The `# host:` stderr lines of run/compare.  Host wall-clock is not
  /// deterministic, so this is never serialized or cached.
  std::string host;
};

/// A byte payload of JobResult and its JSON key.  This one table drives
/// the result codec and the result cache's content-addressed store tier.
struct Payload {
  std::string_view key;
  std::string JobResult::*field;
};
inline constexpr Payload kPayloads[] = {{"stdout", &JobResult::out},
                                        {"report", &JobResult::report},
                                        {"events", &JobResult::events}};

/// True for the commands a daemon job may name.
[[nodiscard]] bool known_command(std::string_view cmd);

/// Content-addressed cache key: a 128-bit hash over (command, name,
/// source, plan, deterministic config).  deadline_ms is excluded:
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

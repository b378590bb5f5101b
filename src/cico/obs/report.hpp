// Versioned JSON run reports (the machine-readable artifact `--report`
// writes; see docs/observability.md for the schema contract).
//
// A report carries the simulated configuration, per-node and aggregate
// Stat counters, the cost-model breakdown, per-message-type network
// counts, fault telemetry, the collector's per-epoch time series with
// per-epoch hot blocks, and -- for `cachier compare` -- the paper's
// Table-2-style annotation-effectiveness deltas between the unannotated
// and annotated runs.
//
// Everything in a report is a pure function of simulated state, so the
// bytes are identical run to run (report_test enforces this).
// Host-dependent quantities (wall-clock) are deliberately excluded; they
// stay on stderr.
#pragma once

#include <string_view>

#include "cico/common/stats.hpp"
#include "cico/net/network.hpp"
#include "cico/obs/collector.hpp"
#include "cico/obs/json.hpp"
#include "cico/sim/config.hpp"

namespace cico::obs {

/// Bump on any breaking schema change; additive fields do not bump it
/// (consumers must tolerate unknown keys).  v2 added the per-directive
/// breakdown (`directives` in each run and in `comparison`) and the
/// per-directive cycle counters in `totals`; see docs/report_schema.md
/// for the full v1 -> v2 changelog.
inline constexpr std::uint64_t kReportSchemaVersion = 2;
/// Oldest schema the tooling (cachier diff) still reads.
inline constexpr std::uint64_t kReportSchemaMinSupported = 1;

/// The deterministic subset of a SimConfig.  `faults_spec` is the CLI's
/// textual fault spec (empty when faults are disabled).
[[nodiscard]] Json config_json(const sim::SimConfig& cfg,
                               std::string_view protocol_name,
                               std::string_view faults_spec);

/// One epoch_series row, exactly as it appears inside a run (shared by the
/// in-memory path and the streaming epoch writer so both emit identical
/// bytes).
[[nodiscard]] Json epoch_row_json(const EpochRow& row);

/// One measured run: counters, cost breakdown, per-directive table, epoch
/// series, hot blocks.  When the collector streamed its rows to a sink
/// (Collector::streaming()), `series_splice_id` names the sidecar and
/// `epoch_series` becomes a Json::splice node the caller resolves at dump
/// time; otherwise the series is embedded from col.epochs().
[[nodiscard]] Json run_json(std::string_view name, Cycle exec_time,
                            EpochId epochs, const Stats& stats,
                            const net::Network& net, const Collector& col,
                            std::string_view series_splice_id = {});

/// Paper Table-2-style effectiveness deltas between a baseline run and an
/// annotated run (both built by run_json).
[[nodiscard]] Json comparison_json(const Json& baseline, const Json& annotated);

/// Assembles the versioned envelope: {schema_version, generator, command,
/// config, runs[, comparison]}.
[[nodiscard]] Json make_report(std::string_view command, Json config,
                               std::vector<Json> runs);

}  // namespace cico::obs

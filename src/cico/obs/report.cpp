#include "cico/obs/report.hpp"

#include <cstdint>

#include "cico/net/msg.hpp"

namespace cico::obs {

namespace {

Json hot_blocks_json(const std::vector<std::pair<Block, std::uint64_t>>& hot) {
  Json a = Json::array();
  for (const auto& [block, traps] : hot) {
    Json e = Json::object();
    e.set("block", Json::number(static_cast<std::uint64_t>(block)));
    e.set("traps", Json::number(traps));
    a.push_back(std::move(e));
  }
  return a;
}

/// One epoch_series row.
Json epoch_row_json(const EpochRow& row) {
  Json e = Json::object();
  e.set("epoch", Json::number(static_cast<std::uint64_t>(row.epoch)));
  e.set("end_vt", Json::number(static_cast<std::uint64_t>(row.end_vt)));
  e.set("misses", Json::number(row.misses));
  e.set("traps", Json::number(row.traps));
  e.set("messages", Json::number(row.messages));
  e.set("stall_cycles", Json::number(row.stall_cycles));
  e.set("hot_blocks", hot_blocks_json(row.hot_blocks));
  return e;
}

std::uint64_t u64_of(const Json& run, std::string_view section,
                     std::string_view key) {
  const Json* s = run.find(section);
  if (s == nullptr) return 0;
  const Json* v = s->find(key);
  return v != nullptr ? v->as_u64() : 0;
}

/// One row of the per-directive table: how often the directive was issued
/// and the cycles attributed to issuing (and, for blocking check-outs,
/// waiting on) it.
Json directive_entry(const Stats& stats, Stat count, Stat cycles) {
  Json e = Json::object();
  e.set("count", Json::number(stats.total(count)));
  e.set("cycles", Json::number(stats.total(cycles)));
  return e;
}

/// delta = annotated - baseline, emitted as a signed number.
Json delta_json(std::uint64_t base, std::uint64_t anno) {
  return Json::number(static_cast<std::int64_t>(anno) -
                      static_cast<std::int64_t>(base));
}

}  // namespace

Json config_json(const sim::SimConfig& cfg, std::string_view protocol_name,
                 std::string_view faults_spec) {
  Json c = Json::object();
  c.set("nodes", Json::number(static_cast<std::uint64_t>(cfg.nodes)));
  c.set("protocol", Json::string(std::string(protocol_name)));
  c.set("quantum", Json::number(static_cast<std::uint64_t>(cfg.quantum)));
  c.set("heap_base", Json::number(static_cast<std::uint64_t>(cfg.heap_base)));
  c.set("trace_mode", Json::boolean(cfg.trace_mode));
  c.set("paranoid", Json::boolean(cfg.audit_invariants));
  c.set("watchdog_rounds",
        Json::number(static_cast<std::uint64_t>(cfg.watchdog_rounds)));
  c.set("faults", Json::string(std::string(faults_spec)));

  Json cache = Json::object();
  cache.set("size_bytes",
            Json::number(static_cast<std::uint64_t>(cfg.cache.size_bytes)));
  cache.set("assoc", Json::number(static_cast<std::uint64_t>(cfg.cache.assoc)));
  cache.set("block_bytes",
            Json::number(static_cast<std::uint64_t>(cfg.cache.block_bytes)));
  c.set("cache", std::move(cache));

  Json cost = Json::object();
  cost.set("hit", Json::number(static_cast<std::uint64_t>(cfg.cost.hit)));
  cost.set("net_hop", Json::number(static_cast<std::uint64_t>(cfg.cost.net_hop)));
  cost.set("dir_hw", Json::number(static_cast<std::uint64_t>(cfg.cost.dir_hw)));
  cost.set("dir_trap",
           Json::number(static_cast<std::uint64_t>(cfg.cost.dir_trap)));
  cost.set("inval_per_sharer",
           Json::number(static_cast<std::uint64_t>(cfg.cost.inval_per_sharer)));
  cost.set("mem_access",
           Json::number(static_cast<std::uint64_t>(cfg.cost.mem_access)));
  cost.set("barrier", Json::number(static_cast<std::uint64_t>(cfg.cost.barrier)));
  cost.set("lock", Json::number(static_cast<std::uint64_t>(cfg.cost.lock)));
  cost.set("directive_issue",
           Json::number(static_cast<std::uint64_t>(cfg.cost.directive_issue)));
  cost.set("prefetch_issue",
           Json::number(static_cast<std::uint64_t>(cfg.cost.prefetch_issue)));
  cost.set("prefetch_min_gap",
           Json::number(static_cast<std::uint64_t>(cfg.cost.prefetch_min_gap)));
  c.set("cost", std::move(cost));
  // Host wall-clock is intentionally absent: a report must not depend on it.
  return c;
}

Json run_json(std::string_view name, Cycle exec_time, EpochId epochs,
              const Stats& stats, const net::Network& net,
              const Collector& col) {
  Json r = Json::object();
  r.set("name", Json::string(std::string(name)));
  r.set("exec_time", Json::number(static_cast<std::uint64_t>(exec_time)));
  r.set("epochs", Json::number(static_cast<std::uint64_t>(epochs)));

  Json totals = Json::object();
  for (std::size_t s = 0; s < kStatCount; ++s) {
    totals.set(stat_name(static_cast<Stat>(s)),
               Json::number(stats.total(static_cast<Stat>(s))));
  }
  r.set("totals", std::move(totals));

  // Per-node table keyed by stat name: {"read_misses": [n0, n1, ...], ...}.
  // Only stats with a nonzero total appear, keeping small-run reports small
  // without ever dropping information (zero total => all-zero row).
  Json per_node = Json::object();
  for (std::size_t s = 0; s < kStatCount; ++s) {
    if (stats.total(static_cast<Stat>(s)) == 0) continue;
    Json row = Json::array();
    for (std::size_t n = 0; n < stats.nodes(); ++n) {
      row.push_back(Json::number(
          stats.node(static_cast<NodeId>(n), static_cast<Stat>(s))));
    }
    per_node.set(stat_name(static_cast<Stat>(s)), std::move(row));
  }
  r.set("per_node", std::move(per_node));

  Json by_type = Json::object();
  for (std::size_t t = 0; t < net::kMsgTypeCount; ++t) {
    by_type.set(net::msg_type_name(static_cast<net::MsgType>(t)),
                Json::number(net.sent(static_cast<net::MsgType>(t))));
  }
  r.set("messages_by_type", std::move(by_type));

  // Where the cycles went (the cost-model breakdown the paper's tables
  // reason about): aggregate cycle accounts next to their event counts.
  Json cost = Json::object();
  cost.set("compute_cycles", Json::number(stats.total(Stat::ComputeCycles)));
  cost.set("stall_cycles", Json::number(stats.total(Stat::StallCycles)));
  cost.set("directive_cycles", Json::number(stats.total(Stat::DirectiveCycles)));
  cost.set("barriers", Json::number(stats.total(Stat::Barriers)));
  cost.set("traps", Json::number(stats.total(Stat::Traps)));
  cost.set("invalidations", Json::number(stats.total(Stat::Invalidations)));
  r.set("cost_breakdown", std::move(cost));

  // Schema v2: per-directive counts and attributed cost.  The four
  // non-prefetch cycle rows partition cost_breakdown.directive_cycles;
  // prefetch issue cost is asynchronous and accounted only here.
  Json dirs = Json::object();
  dirs.set("check_out_x",
           directive_entry(stats, Stat::CheckOutX, Stat::CheckOutXCycles));
  dirs.set("check_out_s",
           directive_entry(stats, Stat::CheckOutS, Stat::CheckOutSCycles));
  dirs.set("check_in",
           directive_entry(stats, Stat::CheckIns, Stat::CheckInCycles));
  dirs.set("prefetch_x",
           directive_entry(stats, Stat::PrefetchX, Stat::PrefetchXCycles));
  dirs.set("prefetch_s",
           directive_entry(stats, Stat::PrefetchS, Stat::PrefetchSCycles));
  dirs.set("post_store",
           directive_entry(stats, Stat::PostStores, Stat::PostStoreCycles));
  r.set("directives", std::move(dirs));

  Json faults = Json::object();
  faults.set("msg_dropped", Json::number(stats.total(Stat::MsgDropped)));
  faults.set("msg_duplicated", Json::number(stats.total(Stat::MsgDuplicated)));
  faults.set("retries", Json::number(stats.total(Stat::Retries)));
  faults.set("prefetch_throttled",
             Json::number(stats.total(Stat::PrefetchThrottled)));
  faults.set("watchdog_trips", Json::number(stats.total(Stat::WatchdogTrips)));
  r.set("faults", std::move(faults));

  Json series = Json::rendered_array();
  for (const EpochRow& row : col.epochs()) series.push_back(epoch_row_json(row));
  r.set("epoch_series", std::move(series));
  r.set("hot_blocks", hot_blocks_json(col.hot_blocks()));
  return r;
}

Json comparison_json(const Json& baseline, const Json& annotated) {
  Json c = Json::object();
  const Json* bname = baseline.find("name");
  const Json* aname = annotated.find("name");
  c.set("baseline", Json::string(bname != nullptr ? bname->as_string() : ""));
  c.set("annotated", Json::string(aname != nullptr ? aname->as_string() : ""));

  const Json* bexec = baseline.find("exec_time");
  const Json* aexec = annotated.find("exec_time");
  const std::uint64_t bt = bexec != nullptr ? bexec->as_u64() : 0;
  const std::uint64_t at = aexec != nullptr ? aexec->as_u64() : 0;
  c.set("normalized_time",
        Json::number(static_cast<double>(at) /
                     static_cast<double>(bt != 0 ? bt : 1)));

  // The Table-2 columns: how the annotations changed the event counts.
  Json d = Json::object();
  d.set("exec_time", delta_json(bt, at));
  const std::pair<const char*, const char*> keys[] = {
      {"read_misses", "totals"},   {"write_misses", "totals"},
      {"write_faults", "totals"},  {"traps", "totals"},
      {"invalidations", "totals"}, {"messages", "totals"},
      {"check_out_x", "totals"},   {"check_out_s", "totals"},
      {"check_ins", "totals"},     {"prefetch_issued", "totals"},
      {"stall_cycles", "totals"},
  };
  for (const auto& [key, section] : keys) {
    d.set(key, delta_json(u64_of(baseline, section, key),
                          u64_of(annotated, section, key)));
  }
  c.set("delta", std::move(d));

  // Schema v2: per-directive count/cycle deltas, mirroring the runs'
  // `directives` tables.  Reads tolerate v1 runs (absent table => zeros).
  auto dir_u64 = [](const Json& run, std::string_view kind,
                    std::string_view field) -> std::uint64_t {
    const Json* table = run.find("directives");
    if (table == nullptr) return 0;
    const Json* entry = table->find(kind);
    if (entry == nullptr) return 0;
    const Json* v = entry->find(field);
    return v != nullptr ? v->as_u64() : 0;
  };
  Json dd = Json::object();
  for (const char* kind : {"check_out_x", "check_out_s", "check_in",
                           "prefetch_x", "prefetch_s", "post_store"}) {
    Json e = Json::object();
    e.set("count", delta_json(dir_u64(baseline, kind, "count"),
                              dir_u64(annotated, kind, "count")));
    e.set("cycles", delta_json(dir_u64(baseline, kind, "cycles"),
                               dir_u64(annotated, kind, "cycles")));
    dd.set(kind, std::move(e));
  }
  c.set("directives", std::move(dd));
  return c;
}

Json make_report(std::string_view command, Json config,
                 std::vector<Json> runs) {
  Json rep = Json::object();
  rep.set("schema_version", Json::number(kReportSchemaVersion));
  rep.set("generator", Json::string("cachier"));
  rep.set("command", Json::string(std::string(command)));
  rep.set("config", std::move(config));
  Json arr = Json::array();
  for (Json& r : runs) arr.push_back(std::move(r));
  rep.set("runs", std::move(arr));
  return rep;
}

}  // namespace cico::obs

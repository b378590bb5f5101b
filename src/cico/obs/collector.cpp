#include "cico/obs/collector.hpp"

#include <algorithm>
#include <ostream>

namespace cico::obs {

namespace {

/// The k blocks with the most traps (count desc, block asc), in a vector
/// of exactly that size: retained epoch rows hold no spare capacity.
std::vector<std::pair<Block, std::uint64_t>> hottest(
    const std::map<Block, std::uint64_t>& traps, std::size_t k) {
  std::vector<std::pair<Block, std::uint64_t>> all(traps.begin(), traps.end());
  const auto mid = all.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(k, all.size()));
  std::partial_sort(all.begin(), mid, all.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  return {all.begin(), mid};
}

}  // namespace

void Collector::on_trap(NodeId req, NodeId home, Block b, Cycle t0, Cycle t1,
                        std::uint32_t invalidations, EpochId epoch) {
  epoch_traps_[b] += 1;
  run_traps_[b] += 1;
  if (events_enabled_) {
    events_.push_back(Event{Event::Kind::Trap, req, home, b, t0, t1,
                            invalidations, epoch});
  }
}

void Collector::on_prefetch_fill(NodeId node, Block b, Cycle issue, Cycle ready,
                                 EpochId epoch) {
  if (events_enabled_) {
    events_.push_back(
        Event{Event::Kind::Prefetch, node, 0, b, issue, ready, 0, epoch});
  }
}

void Collector::on_barrier_wait(NodeId node, Cycle arrive, Cycle release,
                                EpochId epoch) {
  if (events_enabled_) {
    events_.push_back(
        Event{Event::Kind::BarrierWait, node, 0, 0, arrive, release, 0, epoch});
  }
}

void Collector::flush_epoch(EpochId epoch, Cycle end_vt, const Stats& stats) {
  EpochRow row;
  row.epoch = epoch;
  row.end_vt = end_vt;
  const std::uint64_t misses = stats.total(Stat::ReadMisses) +
                               stats.total(Stat::WriteMisses) +
                               stats.total(Stat::WriteFaults);
  const std::uint64_t traps = stats.total(Stat::Traps);
  const std::uint64_t messages = stats.total(Stat::Messages);
  const std::uint64_t stall = stats.total(Stat::StallCycles);
  row.misses = misses - prev_misses_;
  row.traps = traps - prev_traps_;
  row.messages = messages - prev_messages_;
  row.stall_cycles = stall - prev_stall_;
  prev_misses_ = misses;
  prev_traps_ = traps;
  prev_messages_ = messages;
  prev_stall_ = stall;

  row.hot_blocks = hottest(epoch_traps_, top_k_);
  epoch_traps_.clear();

  if (events_enabled_) {
    events_.push_back(Event{Event::Kind::Epoch, 0, 0, 0, prev_end_vt_, end_vt,
                            0, epoch});
  }
  prev_end_vt_ = end_vt;
  rows_.push_back(std::move(row));
}

void Collector::on_epoch_end(EpochId epoch, Cycle end_vt, const Stats& stats) {
  flush_epoch(epoch, end_vt, stats);
}

void Collector::on_run_end(Cycle final_vt, const Stats& stats) {
  if (finished_) return;
  finished_ = true;
  // The tail of the run after the last barrier is its own (unclosed) epoch;
  // flush it even when nothing happened so row count == epoch count + 1 and
  // consumers never need a special case for barrier-free programs.
  flush_epoch(static_cast<EpochId>(rows_.size()), final_vt, stats);
}

std::vector<std::pair<Block, std::uint64_t>> Collector::hot_blocks() const {
  return hottest(run_traps_, top_k_);
}

void Collector::write_chrome_trace(std::ostream& os) const {
  // Chrome trace-event "JSON object format".  ts/dur are in microseconds;
  // we map one simulated cycle to one tick.  pid 0 holds machine-wide
  // lanes (epochs); pid 1 holds one tid per node.
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](auto fn) {
    if (!first) os << ",\n";
    first = false;
    os << "    ";
    fn();
  };
  emit([&] {
    os << R"({"name": "process_name", "ph": "M", "pid": 0, "tid": 0, )"
       << R"("args": {"name": "machine"}})";
  });
  emit([&] {
    os << R"({"name": "process_name", "ph": "M", "pid": 1, "tid": 0, )"
       << R"("args": {"name": "nodes"}})";
  });
  for (const Event& e : events_) {
    switch (e.kind) {
      case Event::Kind::Epoch:
        emit([&] {
          os << R"({"name": "epoch )" << e.epoch
             << R"(", "ph": "X", "pid": 0, "tid": 0, "ts": )" << e.t0
             << ", \"dur\": " << (e.t1 - e.t0) << R"(, "args": {"epoch": )"
             << e.epoch << "}}";
        });
        break;
      case Event::Kind::BarrierWait:
        emit([&] {
          os << R"({"name": "barrier wait", "ph": "X", "pid": 1, "tid": )"
             << e.node << ", \"ts\": " << e.t0 << ", \"dur\": "
             << (e.t1 - e.t0) << R"(, "args": {"epoch": )" << e.epoch << "}}";
        });
        break;
      case Event::Kind::Trap:
        emit([&] {
          os << R"({"name": "trap block )" << e.block
             << R"(", "cat": "trap", "ph": "X", "pid": 1, "tid": )" << e.node
             << ", \"ts\": " << e.t0 << ", \"dur\": " << (e.t1 - e.t0)
             << R"(, "args": {"block": )" << e.block << R"(, "home": )"
             << e.home << R"(, "invalidations": )" << e.aux
             << R"(, "epoch": )" << e.epoch << "}}";
        });
        break;
      case Event::Kind::Prefetch:
        emit([&] {
          os << R"({"name": "prefetch block )" << e.block
             << R"(", "cat": "prefetch", "ph": "X", "pid": 1, "tid": )"
             << e.node << ", \"ts\": " << e.t0 << ", \"dur\": "
             << (e.t1 - e.t0) << R"(, "args": {"block": )" << e.block
             << R"(, "epoch": )" << e.epoch << "}}";
        });
        break;
    }
  }
  os << "\n  ]\n}\n";
}

}  // namespace cico::obs

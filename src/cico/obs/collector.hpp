// Run-time observability collector (the tentpole of the obs layer).
//
// A Collector attaches to a sim::Machine (Machine::set_observer) and
// receives deterministic callbacks on simulated *virtual* time:
//
//   * per-epoch time series -- at every barrier the machine reports its
//     Stats table and the collector buckets the deltas (misses, traps,
//     messages, stall cycles) into one EpochRow, plus the top-K hottest
//     blocks by directory traps inside that epoch;
//   * discrete events -- directory traps, prefetch lifetimes, per-node
//     barrier waits and epoch spans -- which feed the Chrome trace-event
//     (Perfetto-loadable) export.
//
// Determinism: every callback fires from the machine's boundary phase, in
// its canonical (time, node, seq) service order, and epoch flushes happen
// at barriers.  The collector therefore observes one schedule-independent
// event stream, and everything derived from it (the JSON report, the
// event export) is byte-identical run to run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <vector>

#include "cico/common/stats.hpp"
#include "cico/common/types.hpp"

namespace cico::obs {

/// One bucket of the per-epoch time series.  `end_vt` is the virtual time
/// at which the epoch's closing barrier completed (for the final, unclosed
/// epoch: the run's execution time).
struct EpochRow {
  EpochId epoch = 0;
  Cycle end_vt = 0;
  std::uint64_t misses = 0;  ///< read misses + write misses + write faults
  std::uint64_t traps = 0;
  std::uint64_t messages = 0;
  std::uint64_t stall_cycles = 0;
  /// Top-K blocks by directory traps within this epoch (count desc, block
  /// asc); empty when the epoch trapped nowhere.
  std::vector<std::pair<Block, std::uint64_t>> hot_blocks;
};

/// Receives each EpochRow the moment its barrier flush completes.  When a
/// sink is installed the collector forwards rows instead of retaining them,
/// so a run's memory stays O(1) in epoch count (see EpochStreamWriter).
class EpochRowSink {
 public:
  virtual ~EpochRowSink() = default;
  virtual void on_row(const EpochRow& row) = 0;
};

class Collector {
 public:
  explicit Collector(std::size_t top_k = 8) : top_k_(top_k) {}

  /// Event buffering for the Chrome trace export costs memory per event;
  /// off by default, enabled by `--events`.
  void set_events_enabled(bool on) { events_enabled_ = on; }
  [[nodiscard]] bool events_enabled() const { return events_enabled_; }

  /// Streaming mode: forward every flushed EpochRow to `sink` instead of
  /// buffering it (epochs() then stays empty; rows_flushed() still counts).
  /// Rows flush at barriers in canonical order, so the streamed sequence
  /// is byte-identical to the buffered one.  The sink must outlive the run.
  void set_epoch_sink(EpochRowSink* sink) { sink_ = sink; }
  [[nodiscard]] bool streaming() const { return sink_ != nullptr; }
  /// Total rows produced (buffered or streamed).
  [[nodiscard]] std::size_t rows_flushed() const { return rows_flushed_; }

  // --- machine callbacks (virtual time, deterministic order) ---------------
  void on_trap(NodeId req, NodeId home, Block b, Cycle t0, Cycle t1,
               std::uint32_t invalidations, EpochId epoch);
  void on_prefetch_fill(NodeId node, Block b, Cycle issue, Cycle ready,
                        EpochId epoch);
  void on_barrier_wait(NodeId node, Cycle arrive, Cycle release, EpochId epoch);
  /// Closes epoch `epoch` at `end_vt`, snapshotting the stat deltas.
  void on_epoch_end(EpochId epoch, Cycle end_vt, const Stats& stats);
  /// Closes the final (unbarriered) epoch and freezes the series.
  void on_run_end(Cycle final_vt, const Stats& stats);

  // --- results -------------------------------------------------------------
  [[nodiscard]] const std::vector<EpochRow>& epochs() const { return rows_; }
  /// Whole-run top-K hottest blocks by directory traps.
  [[nodiscard]] std::vector<std::pair<Block, std::uint64_t>> hot_blocks() const;
  [[nodiscard]] std::size_t top_k() const { return top_k_; }

  /// Chrome trace-event JSON (chrome://tracing, https://ui.perfetto.dev):
  /// epoch spans, per-node barrier waits, directory traps and prefetch
  /// lifetimes, all on simulated virtual time (1 cycle == 1 "us" tick).
  void write_chrome_trace(std::ostream& os) const;

 private:
  struct Event {
    enum class Kind : std::uint8_t { Trap, Prefetch, BarrierWait, Epoch };
    Kind kind;
    NodeId node = 0;   ///< requester / waiter (Epoch: unused)
    NodeId home = 0;   ///< trap handler's home node
    Block block = 0;
    Cycle t0 = 0;
    Cycle t1 = 0;
    std::uint32_t aux = 0;  ///< invalidations sent (Trap)
    EpochId epoch = 0;
  };

  void flush_epoch(EpochId epoch, Cycle end_vt, const Stats& stats);

  std::size_t top_k_;
  bool events_enabled_ = false;
  bool finished_ = false;
  EpochRowSink* sink_ = nullptr;
  std::size_t rows_flushed_ = 0;

  std::vector<EpochRow> rows_;
  std::vector<Event> events_;
  // std::map: deterministic iteration when extracting top-K.
  std::map<Block, std::uint64_t> epoch_traps_;
  std::map<Block, std::uint64_t> run_traps_;

  // Previous-epoch totals for delta bucketing.
  std::uint64_t prev_misses_ = 0;
  std::uint64_t prev_traps_ = 0;
  std::uint64_t prev_messages_ = 0;
  std::uint64_t prev_stall_ = 0;
  Cycle prev_end_vt_ = 0;
};

}  // namespace cico::obs

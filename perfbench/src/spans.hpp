// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps each call it makes into a library layer in a Span.
// Spans nest per thread (the innermost open span is the parent), carry the
// id of the program or job they belong to, and are kept in memory until
// the run ends.  Then they are written as Chrome trace-event JSON (opens in
// Perfetto beside `cachier --events`) and folded into a per-layer table of
// count, total time and self time (span time minus its child spans).
//
// Recording is off unless enable() was called; a disabled Span costs one
// relaxed atomic load, so the untraced run measures the same code.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";
  Clock::time_point t0{};
  Clock::time_point t1{};
  int parent = -1;         ///< index of the enclosing span, -1 at top level
  std::uint64_t op = 0;    ///< program / job id the span belongs to
  std::uint32_t tid = 0;   ///< small per-thread number (trace rows)
};

/// Per-layer fold of the recorded spans.
struct LayerTotals {
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return on_.load(std::memory_order_relaxed);
  }

  /// Opens a span on the calling thread; returns its index.
  int open(const char* name);
  void close(int idx);

  /// Sets the program / job id later spans on this thread are tagged with.
  static void set_op(std::uint64_t op);

  /// Totals by span name.
  [[nodiscard]] std::map<std::string, LayerTotals> layers() const;
  /// Chrome trace-event JSON of every recorded span.
  void write_chrome_trace(std::ostream& os) const;

 private:
  std::atomic<bool> on_{false};
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  std::uint32_t next_tid_ = 0;     // guarded by mu_
};

/// RAII span: records [construction, destruction) when tracing is on.
class Span {
 public:
  explicit Span(const char* name)
      : idx_(Tracer::instance().enabled() ? Tracer::instance().open(name)
                                          : -1) {}
  ~Span() {
    if (idx_ >= 0) Tracer::instance().close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int idx_;
};

}  // namespace perfbench

#include "spans.hpp"

#include <ostream>

#include "cico/obs/json.hpp"

namespace perfbench {

namespace {

struct ThreadState {
  std::vector<int> stack;  ///< open span indices, innermost last
  std::uint64_t op = 0;
  std::int64_t tid = -1;
};

thread_local ThreadState t_state;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

void Tracer::set_op(std::uint64_t op) { t_state.op = op; }

int Tracer::open(const char* name) {
  SpanRecord s;
  s.name = name;
  s.parent = t_state.stack.empty() ? -1 : t_state.stack.back();
  s.op = t_state.op;
  int idx = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (t_state.tid < 0) t_state.tid = next_tid_++;
    s.tid = static_cast<std::uint32_t>(t_state.tid);
    idx = static_cast<int>(spans_.size());
    spans_.push_back(s);
    // Stamp last so the lock wait is not charged to the span.
    spans_.back().t0 = Clock::now();
  }
  t_state.stack.push_back(idx);
  return idx;
}

void Tracer::close(int idx) {
  const Clock::time_point now = Clock::now();
  t_state.stack.pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(idx)].t1 = now;
}

std::map<std::string, LayerTotals> Tracer::layers() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Children on one thread never overlap each other, so a span's self time
  // is its duration minus the summed durations of its direct children.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += ms_between(spans_[i].t0, spans_[i].t1);
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          ms_between(spans_[i].t0, spans_[i].t1);
    }
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTotals& l = out[spans_[i].name];
    ++l.count;
    l.total_ms += ms_between(spans_[i].t0, spans_[i].t1);
    l.self_ms += self[i];
  }
  return out;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << (i == 0 ? "" : ",\n") << "{\"name\":";
    cico::obs::write_json_string(os, s.name);
    os << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << us(s.t0)
       << ",\"dur\":" << us(s.t1) - us(s.t0) << ",\"args\":{\"op\":" << s.op
       << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench

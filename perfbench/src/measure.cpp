#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

Rusage Rusage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  Rusage r;
  r.user_ms = ms(ru.ru_utime);
  r.sys_ms = ms(ru.ru_stime);
  r.vol_cs = static_cast<double>(ru.ru_nvcsw);
  r.invol_cs = static_cast<double>(ru.ru_nivcsw);
  // Peak RSS from VmHWM: ru_maxrss survives exec, so it would report the
  // launching interpreter's footprint whenever that was larger.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      r.maxrss_mb = std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return r;
}

Rusage Rusage::operator-(const Rusage& o) const {
  Rusage r;
  r.user_ms = user_ms - o.user_ms;
  r.sys_ms = sys_ms - o.sys_ms;
  r.vol_cs = vol_cs - o.vol_cs;
  r.invol_cs = invol_cs - o.invol_cs;
  r.maxrss_mb = maxrss_mb;  // a high-water mark, not a difference
  return r;
}

void Batcher::op_done(Phase& ph) {
  if (++n_ < size_) return;
  const auto now = std::chrono::steady_clock::now();
  const Rusage r = Rusage::now();
  const double ops = static_cast<double>(ph.op_ms.size() - done0_);
  const double s = std::chrono::duration<double>(now - t0_).count();
  if (ops > 0) {
    ph.batch_rate.push_back(ops / s);
    ph.batch_cpu_ms.push_back((r.user_ms - r0_.user_ms + r.sys_ms - r0_.sys_ms) /
                              ops);
  }
  n_ = 0;
  done0_ = ph.op_ms.size();
  t0_ = now;
  r0_ = r;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace perfbench

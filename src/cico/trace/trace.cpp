#include "cico/trace/trace.hpp"

#include <algorithm>
#include <tuple>
#include <limits>
#include <numeric>
#include <type_traits>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "cico/common/parse_num.hpp"

namespace cico::trace {

const char* miss_kind_name(MissKind k) {
  switch (k) {
    case MissKind::ReadMiss: return "read_miss";
    case MissKind::WriteMiss: return "write_miss";
    case MissKind::WriteFault: return "write_fault";
  }
  return "unknown";
}

EpochId Trace::num_epochs() const {
  // `m.epoch + 1` wrapped to 0 for an epoch id of EpochId max, so a trace
  // touching the last representable epoch reported zero epochs; track the
  // maximum id instead and reject the one unrepresentable count.
  bool any = false;
  EpochId hi = 0;
  for (const auto& m : misses) {
    any = true;
    hi = std::max(hi, m.epoch);
  }
  for (const auto& b : barriers) {
    any = true;
    hi = std::max(hi, b.epoch);
  }
  if (!any) return 0;
  if (hi == std::numeric_limits<EpochId>::max()) {
    throw std::runtime_error("trace: epoch count overflows EpochId");
  }
  return hi + 1;
}

void canonicalize(Trace& t) {
  std::sort(t.misses.begin(), t.misses.end(),
            [](const MissRecord& a, const MissRecord& b) {
              return std::tie(a.epoch, a.node, a.addr, a.pc, a.kind, a.size) <
                     std::tie(b.epoch, b.node, b.addr, b.pc, b.kind, b.size);
            });
  std::sort(t.barriers.begin(), t.barriers.end(),
            [](const BarrierRecord& a, const BarrierRecord& b) {
              return std::tie(a.epoch, a.node, a.vt, a.barrier_pc) <
                     std::tie(b.epoch, b.node, b.vt, b.barrier_pc);
            });
}

void Trace::validate_labels() const {
  label_index_.resize(labels.size());
  std::iota(label_index_.begin(), label_index_.end(), 0u);
  std::sort(label_index_.begin(), label_index_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (labels[a].base != labels[b].base) {
                return labels[a].base < labels[b].base;
              }
              if (labels[a].bytes != labels[b].bytes) {
                return labels[a].bytes < labels[b].bytes;
              }
              return a < b;
            });
  const RegionLabel* prev = nullptr;
  Addr end = 0;
  for (const std::uint32_t i : label_index_) {
    const RegionLabel& r = labels[i];
    if (r.bytes == 0) continue;
    if (r.bytes > std::numeric_limits<Addr>::max() - r.base) {
      throw std::runtime_error("trace: region label '" + r.label +
                               "' wraps the address space");
    }
    if (prev != nullptr && r.base < end) {
      throw std::runtime_error("trace: overlapping region labels '" +
                               prev->label + "' and '" + r.label + "'");
    }
    if (r.base + r.bytes > end) {
      end = r.base + r.bytes;
      prev = &r;
    }
  }
}

const RegionLabel* Trace::region_of(Addr addr) const {
  if (label_index_.size() != labels.size()) validate_labels();
  // Non-overlap (validated above) means only the last region starting at
  // or before addr can contain it; among equal bases the index orders the
  // zero-length entries first, so the predecessor is the widest candidate.
  const auto it = std::upper_bound(
      label_index_.begin(), label_index_.end(), addr,
      [&](Addr a, std::uint32_t i) { return a < labels[i].base; });
  if (it == label_index_.begin()) return nullptr;
  const RegionLabel& r = labels[*std::prev(it)];
  return (addr - r.base < r.bytes) ? &r : nullptr;
}

void TraceWriter::set_labels(std::vector<RegionLabel> labels) {
  trace_.labels = std::move(labels);
}

void TraceWriter::record_miss(NodeId node, MissKind kind, Addr addr,
                              std::uint32_t size, PcId pc, EpochId epoch) {
  Key k{node, static_cast<std::uint8_t>(kind), addr, pc};
  if (!epoch_seen_.insert(k).second) return;
  epoch_buf_.push_back(MissRecord{epoch, node, kind, addr, size, pc});
}

void TraceWriter::record_barrier(NodeId node, PcId barrier_pc, Cycle vt,
                                 EpochId epoch) {
  trace_.barriers.push_back(BarrierRecord{epoch, node, barrier_pc, vt});
}

void TraceWriter::end_epoch() {
  trace_.misses.insert(trace_.misses.end(), epoch_buf_.begin(), epoch_buf_.end());
  epoch_buf_.clear();
  epoch_seen_.clear();
}

Trace TraceWriter::take() {
  end_epoch();
  return std::move(trace_);
}

namespace {

/// Labels are user-controlled strings serialized into a space-separated
/// format; `ls >> r.label` used to truncate "my array" at the space and
/// shift every following field.  Escape the separators instead.
std::string escape_label(const std::string& s) {
  if (s.empty()) return "\\e";
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '\\': out += "\\\\"; break;
      case ' ': out += "\\s"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += ch; break;
    }
  }
  return out;
}

[[noreturn]] void fail_line(std::size_t lineno, const std::string& what) {
  throw std::runtime_error("trace: line " + std::to_string(lineno) + ": " +
                           what);
}

std::string unescape_label(const std::string& tok, std::size_t lineno) {
  if (tok == "\\e") return "";
  std::string out;
  out.reserve(tok.size());
  for (std::size_t i = 0; i < tok.size(); ++i) {
    if (tok[i] != '\\') {
      out += tok[i];
      continue;
    }
    if (++i == tok.size()) fail_line(lineno, "dangling escape in label");
    switch (tok[i]) {
      case '\\': out += '\\'; break;
      case 's': out += ' '; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default:
        fail_line(lineno,
                  std::string("bad label escape '\\") + tok[i] + "'");
    }
  }
  return out;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tok;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tok.push_back(line.substr(start, i - start));
  }
  return tok;
}

template <typename T>
T num_field(const std::vector<std::string>& tok, std::size_t i,
            std::size_t lineno, const char* what) {
  try {
    return parse_num<T>(tok[i], what);
  } catch (const std::exception& e) {
    fail_line(lineno, e.what());
  }
}

void expect_fields(const std::vector<std::string>& tok, std::size_t want,
                   std::size_t lineno, const char* record) {
  if (tok.size() == want) return;
  fail_line(lineno, std::string(record) + " record needs " +
                        std::to_string(want - 1) + " fields, got " +
                        std::to_string(tok.size() - 1));
}

}  // namespace

void save_text(const Trace& t, std::ostream& os) {
  os << "cico-trace v1\n";
  for (const auto& r : t.labels) {
    os << "L " << escape_label(r.label) << ' ' << r.base << ' ' << r.bytes
       << ' ' << (r.regular ? 1 : 0) << '\n';
  }
  for (const auto& m : t.misses) {
    os << "M " << m.epoch << ' ' << m.node << ' ' << static_cast<int>(m.kind)
       << ' ' << m.addr << ' ' << m.size << ' ' << m.pc << '\n';
  }
  for (const auto& b : t.barriers) {
    os << "B " << b.epoch << ' ' << b.node << ' ' << b.barrier_pc << ' '
       << b.vt << '\n';
  }
}

Trace load_text(std::istream& is) {
  Trace t;
  std::string line;
  std::size_t lineno = 1;
  if (!std::getline(is, line) || line != "cico-trace v1") {
    throw std::runtime_error(
        "trace: line 1: bad header (expected 'cico-trace v1')");
  }
  while (std::getline(is, line)) {
    ++lineno;
    const std::vector<std::string> tok = tokenize(line);
    if (tok.empty()) continue;
    const std::string& tag = tok[0];
    if (tag == "L") {
      expect_fields(tok, 5, lineno, "L");
      RegionLabel r;
      r.label = unescape_label(tok[1], lineno);
      r.base = num_field<Addr>(tok, 2, lineno, "base");
      r.bytes = num_field<std::uint64_t>(tok, 3, lineno, "bytes");
      const auto reg =
          num_field<std::uint32_t>(tok, 4, lineno, "regular flag");
      if (reg > 1) fail_line(lineno, "regular flag must be 0 or 1");
      r.regular = reg != 0;
      t.labels.push_back(std::move(r));
    } else if (tag == "M") {
      expect_fields(tok, 7, lineno, "M");
      MissRecord m;
      m.epoch = num_field<EpochId>(tok, 1, lineno, "epoch");
      m.node = num_field<NodeId>(tok, 2, lineno, "node");
      const auto kind = num_field<std::uint32_t>(tok, 3, lineno, "miss kind");
      if (kind > static_cast<std::uint32_t>(MissKind::WriteFault)) {
        fail_line(lineno, "miss kind out of range (0..2): " + tok[3]);
      }
      m.kind = static_cast<MissKind>(kind);
      m.addr = num_field<Addr>(tok, 4, lineno, "address");
      m.size = num_field<std::uint32_t>(tok, 5, lineno, "size");
      m.pc = num_field<PcId>(tok, 6, lineno, "pc");
      t.misses.push_back(m);
    } else if (tag == "B") {
      expect_fields(tok, 5, lineno, "B");
      BarrierRecord b;
      b.epoch = num_field<EpochId>(tok, 1, lineno, "epoch");
      b.node = num_field<NodeId>(tok, 2, lineno, "node");
      b.barrier_pc = num_field<PcId>(tok, 3, lineno, "barrier pc");
      b.vt = num_field<Cycle>(tok, 4, lineno, "virtual time");
      t.barriers.push_back(b);
    } else {
      fail_line(lineno, "unknown record tag '" + tag + "'");
    }
  }
  t.validate_labels();
  return t;
}

}  // namespace cico::trace

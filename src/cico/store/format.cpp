#include "cico/store/format.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "cico/common/hash.hpp"
#include "cico/common/varint.hpp"

namespace cico::store {

namespace {

constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;
constexpr std::uint64_t kMaxLabelBytes = 1u << 20;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("trace: " + what);
}

[[nodiscard]] auto miss_key(const trace::MissRecord& m) {
  return std::tuple(m.epoch, m.node, m.addr, m.pc,
                    static_cast<std::uint8_t>(m.kind), m.size);
}

[[nodiscard]] auto barrier_key(const trace::BarrierRecord& b) {
  return std::tuple(b.epoch, b.node, b.vt, b.barrier_pc);
}

// --- encoder ----------------------------------------------------------------

/// Appends one chunk's records (already canonically sorted) with deltas
/// reset at the chunk boundary, so every chunk decodes independently.
void encode_payload(std::string& out, EpochId first_epoch,
                    std::span<const trace::MissRecord> misses,
                    std::span<const trace::BarrierRecord> barriers) {
  common::put_varint(out, misses.size());
  EpochId prev_e = first_epoch;
  Addr prev_addr = 0;
  for (const auto& m : misses) {
    common::put_varint(out, m.epoch - prev_e);
    prev_e = m.epoch;
    common::put_varint(out, m.node);
    common::put_varint(out, static_cast<std::uint64_t>(m.kind));
    common::put_varint(out, common::zigzag_encode(m.addr, prev_addr));
    prev_addr = m.addr;
    common::put_varint(out, m.size);
    common::put_varint(out, m.pc);
  }
  common::put_varint(out, barriers.size());
  prev_e = first_epoch;
  Cycle prev_vt = 0;
  for (const auto& b : barriers) {
    common::put_varint(out, b.epoch - prev_e);
    prev_e = b.epoch;
    common::put_varint(out, b.node);
    common::put_varint(out, b.barrier_pc);
    common::put_varint(out, common::zigzag_encode(b.vt, prev_vt));
    prev_vt = b.vt;
  }
}

// --- decoder ----------------------------------------------------------------

/// A bounds-checked read position in a byte buffer.
class Cursor {
 public:
  explicit Cursor(std::string_view in) : in_(in) {}

  std::uint64_t varint() { return common::get_varint(in_, pos_, "trace"); }

  /// The next `n` bytes.
  std::string_view take(std::uint64_t n) {
    if (n > in_.size() - pos_) fail("truncated v2 input");
    const std::string_view s = in_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == in_.size(); }

 private:
  std::string_view in_;
  std::size_t pos_ = 0;
};

/// The epoch `delta` past `prev`, which must lie before `chunk_end`
/// (compared without forming the sum, so a huge delta cannot wrap back
/// into the chunk).
EpochId epoch_in_chunk(EpochId prev, std::uint64_t delta,
                       std::uint64_t chunk_end) {
  if (delta >= chunk_end - prev) fail("record epoch outside chunk");
  return static_cast<EpochId>(prev + delta);
}

/// Decodes and validates one payload into `t`: canonical record order,
/// in-chunk epochs, range-checked narrow fields, and full consumption.
/// Returns the chunk's last record epoch.
EpochId decode_payload(std::string_view payload, EpochId first_epoch,
                       EpochId span, trace::Trace& t) {
  Cursor in(payload);
  const std::uint64_t chunk_end =
      static_cast<std::uint64_t>(first_epoch) + span;  // exclusive

  const auto nmisses = in.varint();
  if (nmisses > payload.size() / 6) fail("miss count exceeds payload");
  EpochId prev_e = first_epoch;
  Addr prev_addr = 0;
  for (std::uint64_t i = 0; i < nmisses; ++i) {
    trace::MissRecord m;
    m.epoch = epoch_in_chunk(prev_e, in.varint(), chunk_end);
    prev_e = m.epoch;
    m.node = common::narrow_varint<NodeId>(in.varint(), "trace", "node");
    const auto kind = in.varint();
    if (kind > static_cast<std::uint64_t>(trace::MissKind::WriteFault)) {
      fail("bad miss kind");
    }
    m.kind = static_cast<trace::MissKind>(kind);
    m.addr = common::zigzag_decode(in.varint(), prev_addr);
    prev_addr = m.addr;
    m.size = common::narrow_varint<std::uint32_t>(in.varint(), "trace", "size");
    m.pc = common::narrow_varint<PcId>(in.varint(), "trace", "pc");
    if (i > 0 && miss_key(m) < miss_key(t.misses.back())) {
      fail("chunk records out of canonical order");
    }
    t.misses.push_back(m);
  }
  EpochId last = prev_e;

  const auto nbarriers = in.varint();
  if (nbarriers > payload.size() / 4) fail("barrier count exceeds payload");
  prev_e = first_epoch;
  Cycle prev_vt = 0;
  for (std::uint64_t i = 0; i < nbarriers; ++i) {
    trace::BarrierRecord b;
    b.epoch = epoch_in_chunk(prev_e, in.varint(), chunk_end);
    prev_e = b.epoch;
    b.node = common::narrow_varint<NodeId>(in.varint(), "trace", "node");
    b.barrier_pc =
        common::narrow_varint<PcId>(in.varint(), "trace", "barrier pc");
    b.vt = common::zigzag_decode(in.varint(), prev_vt);
    prev_vt = b.vt;
    if (i > 0 && barrier_key(b) < barrier_key(t.barriers.back())) {
      fail("chunk records out of canonical order");
    }
    t.barriers.push_back(b);
  }
  last = std::max(last, prev_e);

  if (!in.at_end()) fail("chunk payload has trailing bytes");
  return last;
}

/// Parses and validates a whole v2 stream into `t`, region labels
/// included, so load_v2 and split_v2 refuse the same inputs.  Returns the end offset of the header and of every
/// chunk: the cuts split_v2 makes.
std::vector<std::size_t> decode(std::string_view bytes, trace::Trace& t) {
  if (!is_v2(bytes)) fail("bad v2 header");
  Cursor in(bytes);
  (void)in.take(sizeof(kV2Magic));
  const auto version = in.varint();
  if (version != 2) {
    fail("unsupported v2 version " + std::to_string(version));
  }
  const auto k =
      common::narrow_varint<EpochId>(in.varint(), "trace", "epochs per chunk");
  if (k == 0) fail("epochs per chunk must be >= 1");
  const auto nlabels = in.varint();
  if (nlabels > kMaxLabelBytes) fail("label count");
  for (std::uint64_t i = 0; i < nlabels; ++i) {
    trace::RegionLabel r;
    const auto len = in.varint();
    if (len > kMaxLabelBytes) fail("oversized string");
    r.label = in.take(len);
    r.base = in.varint();
    r.bytes = in.varint();
    const auto reg = in.varint();
    if (reg > 1) fail("regular flag must be 0 or 1");
    r.regular = reg != 0;
    t.labels.push_back(std::move(r));
  }
  std::vector<std::size_t> cuts{in.pos()};

  std::uint64_t chunks = 0;
  EpochId prev_first = 0;
  EpochId prev_span = 0;
  EpochId prev_last = 0;  // last record epoch of the previous chunk
  for (;;) {
    const char tag = in.take(1)[0];
    if (tag == 0x00) break;
    if (tag != 0x01) fail("bad chunk tag");

    // Every chunk except the final one spans exactly K epochs.
    if (chunks > 0 && prev_span != k) fail("short chunk before end");
    const auto first = common::narrow_varint<EpochId>(in.varint(), "trace",
                                                       "chunk first epoch");
    const auto span =
        common::narrow_varint<EpochId>(in.varint(), "trace", "chunk span");
    if (span == 0 || span > k) fail("bad chunk span");
    if (first % k != 0) fail("misaligned chunk");
    if (chunks > 0 && first <= prev_first) fail("chunks out of order");
    if (span - 1 > std::numeric_limits<EpochId>::max() - first) {
      fail("chunk epoch range overflow");
    }

    const auto plen = in.varint();
    if (plen > kMaxPayloadBytes) fail("oversized chunk");
    const std::string_view digest = in.take(16);
    const std::string_view payload = in.take(plen);
    common::ContentHasher h;
    h << payload;
    const auto want = h.digest();
    if (std::memcmp(digest.data(), want.data(), want.size()) != 0) {
      fail("chunk hash mismatch");
    }

    const std::size_t records = t.misses.size() + t.barriers.size();
    prev_last = decode_payload(payload, first, span, t);
    if (t.misses.size() + t.barriers.size() == records) fail("empty chunk");
    prev_first = first;
    prev_span = span;
    ++chunks;
    cuts.push_back(in.pos());
  }

  // End marker: the chunk before it is the final one, so its span must
  // end exactly at its own last record epoch (canonical form).
  if (chunks > 0 && prev_first + prev_span - 1 != prev_last) {
    fail("final chunk span mismatch");
  }
  const auto nchunks = in.varint();
  const auto nmisses = in.varint();
  const auto nbarriers = in.varint();
  if (nchunks != chunks || nmisses != t.misses.size() ||
      nbarriers != t.barriers.size()) {
    fail("trailer counts mismatch");
  }
  if (!in.at_end()) fail("trailing junk after trailer");
  t.validate_labels();
  return cuts;
}

}  // namespace

bool is_v2(std::string_view bytes) {
  return bytes.size() >= sizeof(kV2Magic) &&
         std::memcmp(bytes.data(), kV2Magic, sizeof(kV2Magic)) == 0;
}

std::string encode_v2(const trace::Trace& t, EpochId epochs_per_chunk) {
  trace::Trace c;
  c.misses = t.misses;
  c.barriers = t.barriers;
  trace::canonicalize(c);
  (void)c.num_epochs();  // rejects the unrepresentable EpochId-max epoch
  const EpochId k = epochs_per_chunk == 0 ? 1 : epochs_per_chunk;

  std::string out(kV2Magic, sizeof(kV2Magic));
  common::put_varint(out, 2);  // version
  common::put_varint(out, k);
  common::put_varint(out, t.labels.size());
  for (const auto& r : t.labels) {
    common::put_varint(out, r.label.size());
    out += r.label;
    common::put_varint(out, r.base);
    common::put_varint(out, r.bytes);
    common::put_varint(out, r.regular ? 1 : 0);
  }

  // One chunk per epoch group [first, first + K) that holds a record;
  // empty groups have none.  Record counts, not epoch ids, bound the loop.
  const auto& ms = c.misses;
  const auto& bs = c.barriers;
  std::size_t mi = 0;
  std::size_t bi = 0;
  std::uint64_t chunks = 0;
  std::string payload;
  while (mi < ms.size() || bi < bs.size()) {
    EpochId e = std::numeric_limits<EpochId>::max();
    if (mi < ms.size()) e = ms[mi].epoch;
    if (bi < bs.size()) e = std::min(e, bs[bi].epoch);
    const EpochId first = e / k * k;
    const std::uint64_t end = static_cast<std::uint64_t>(first) + k;
    std::size_t mj = mi;
    std::size_t bj = bi;
    while (mj < ms.size() && ms[mj].epoch < end) ++mj;
    while (bj < bs.size() && bs[bj].epoch < end) ++bj;

    // A later record means a later chunk, so this one spans the full K;
    // the final chunk ends at its own last record epoch.
    EpochId span = k;
    if (mj == ms.size() && bj == bs.size()) {
      EpochId last = first;
      if (mj > mi) last = ms[mj - 1].epoch;
      if (bj > bi) last = std::max(last, bs[bj - 1].epoch);
      span = last - first + 1;
    }

    payload.clear();
    encode_payload(payload, first, {ms.data() + mi, mj - mi},
                   {bs.data() + bi, bj - bi});
    common::ContentHasher h;
    h << payload;
    const auto digest = h.digest();
    out.push_back('\x01');
    common::put_varint(out, first);
    common::put_varint(out, span);
    common::put_varint(out, payload.size());
    out.append(reinterpret_cast<const char*>(digest.data()), digest.size());
    out += payload;
    ++chunks;
    mi = mj;
    bi = bj;
  }
  out.push_back('\x00');
  common::put_varint(out, chunks);
  common::put_varint(out, ms.size());
  common::put_varint(out, bs.size());
  return out;
}

void save_v2(const trace::Trace& t, std::ostream& os,
             EpochId epochs_per_chunk) {
  const std::string bytes = encode_v2(t, epochs_per_chunk);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

trace::Trace load_v2(std::istream& is) {
  std::ostringstream ss;
  ss << is.rdbuf();
  trace::Trace t;
  (void)decode(ss.str(), t);
  return t;
}

V2Sections split_v2(std::string_view bytes) {
  trace::Trace t;
  const std::vector<std::size_t> cuts = decode(bytes, t);
  V2Sections out;
  out.header = bytes.substr(0, cuts.front());
  for (std::size_t i = 1; i < cuts.size(); ++i) {
    out.chunks.emplace_back(bytes.substr(cuts[i - 1], cuts[i] - cuts[i - 1]));
  }
  out.trailer = bytes.substr(cuts.back());
  return out;
}

}  // namespace cico::store

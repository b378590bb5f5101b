// Canonical unsigned LEB128 varints for the epoch-chunked v2 trace format
// (store/format.cpp), written by appending to a std::string and read by
// a cursor over a std::string_view -- the codec works on whole buffers.
//
// Content-addressing is only sound if equal values encode to equal bytes
// and vice versa, so the reader enforces both canonicality properties:
//
//   * minimal length -- a final zero group after at least one continuation
//     byte (e.g. `0x80 0x00` for 0) is rejected, so every value has
//     exactly one encoding;
//   * no overflow bits -- the tenth byte carries shift-63 data, so any
//     group there above 1, or an eleventh byte, is rejected instead of
//     silently discarded.
//
// With those two rules a byte stream is a bijective function of its value,
// which is what makes per-chunk content hashes stable across writers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cico::common {

/// Appends v to `out` as minimal-length unsigned LEB128 (1..10 bytes).
inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Reads one canonical unsigned LEB128 varint at `in[pos]` and advances
/// `pos` past it.  Throws std::runtime_error (message prefixed with
/// `ctx`) on truncation, a non-minimal encoding, or overflow past 64 bits.
inline std::uint64_t get_varint(std::string_view in, std::size_t& pos,
                                const char* ctx = "varint") {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos >= in.size()) {
      throw std::runtime_error(std::string(ctx) + ": truncated varint");
    }
    const auto c = static_cast<unsigned char>(in[pos++]);
    const auto group = static_cast<std::uint64_t>(c & 0x7f);
    // Shift 63 is the tenth byte: only its low bit is representable.
    if (shift == 63 && group > 1) {
      throw std::runtime_error(std::string(ctx) +
                               ": varint overflows 64 bits");
    }
    v |= group << shift;
    if ((c & 0x80) == 0) {
      if (shift > 0 && group == 0) {
        throw std::runtime_error(std::string(ctx) +
                                 ": non-canonical varint encoding");
      }
      return v;
    }
    shift += 7;
    if (shift > 63) {
      throw std::runtime_error(std::string(ctx) +
                               ": varint overflows 64 bits");
    }
  }
}

/// ZigZag maps signed deltas to small unsigned varints (|d| <= 63 fits in
/// one byte either sign).  Deltas are computed with wraparound unsigned
/// subtraction, so the pair is bijective over the full 64-bit range.
[[nodiscard]] inline std::uint64_t zigzag_encode(std::uint64_t value,
                                                 std::uint64_t previous) {
  const auto d = static_cast<std::int64_t>(value - previous);
  return (static_cast<std::uint64_t>(d) << 1) ^
         static_cast<std::uint64_t>(d >> 63);
}

[[nodiscard]] inline std::uint64_t zigzag_decode(std::uint64_t encoded,
                                                 std::uint64_t previous) {
  const std::uint64_t d = (encoded >> 1) ^ (~(encoded & 1) + 1);
  return previous + d;
}

/// Range-checked narrowing for varint-decoded fields: a value that does
/// not fit its 32-bit id is malformed input, so this throws like the text
/// loader's parse_num path instead of silently truncating.
template <typename T>
[[nodiscard]] T narrow_varint(std::uint64_t v, const char* ctx,
                              const char* what) {
  if (v > std::numeric_limits<T>::max()) {
    throw std::runtime_error(std::string(ctx) + ": " + what +
                             " out of range: " + std::to_string(v));
  }
  return static_cast<T>(v);
}

}  // namespace cico::common

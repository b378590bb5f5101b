// Epoch-chunked binary trace format v2.
//
// A flat record stream is compact, but a one-byte change anywhere
// re-encodes nothing and shares nothing.  Fleet-scale regression traffic
// is near-identical runs -- the same app, the same node count, one
// epoch's behaviour changed -- so v2 groups records into independently
// decodable per-epoch-group chunks, each carrying its own length and
// 128-bit content hash.  The content-addressed store
// (store.hpp) keys objects by those chunk boundaries, so two runs
// differing in one epoch share every other chunk on disk, and `cachier
// sync` moves only the delta.
//
// Layout (all integers canonical unsigned LEB128, common/varint.hpp):
//
//   file    := header chunk* end trailer
//   header  := magic "cicotrc2"
//              varint version (= 2)
//              varint epochs_per_chunk K (>= 1)
//              varint nlabels  label*
//   label   := varint len  bytes  varint base  varint bytes
//              varint regular (0|1)
//   chunk   := 0x01
//              varint first_epoch   (multiple of K, strictly increasing)
//              varint epochs        (= K, except the final chunk, whose
//                                    span ends at its own last epoch)
//              varint payload_len
//              hash[16]             (ContentHasher digest of payload)
//              payload
//   end     := 0x00
//   trailer := varint nchunks  varint nmisses  varint nbarriers
//
// A chunk's payload is self-contained (deltas reset per chunk):
//
//   payload := varint nmisses   miss*     (canonical record order)
//              varint nbarriers barrier*
//   miss    := varint d_epoch  varint node  varint kind
//              varint zz_addr  varint size  varint pc
//   barrier := varint d_epoch  varint node  varint pc  varint zz_vt
//
// Records are sorted (trace::canonicalize) and the reader REJECTS
// out-of-order records, empty chunks, non-canonical varints, hash
// mismatches, and trailing bytes -- so a v2 byte stream is a bijective
// function of the canonical trace, which is exactly the invariant that
// makes content-addressing sound.  Epoch groups with no records are
// simply absent (first_epoch skips them).
//
// The codec works on whole buffers: encode_v2 appends varints to one
// std::string, and the decoder walks one cursor over a std::string_view,
// noting where each section ends, so split_v2 is the same parse plus cuts
// at those offsets.  save_v2/load_v2 are the std::ostream/std::istream
// edges: one write out, one whole-stream read in.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "cico/trace/trace.hpp"

namespace cico::store {

inline constexpr char kV2Magic[8] = {'c', 'i', 'c', 'o', 't', 'r', 'c', '2'};
inline constexpr EpochId kDefaultEpochsPerChunk = 1;

/// True when `bytes` starts with the v2 magic.
[[nodiscard]] bool is_v2(std::string_view bytes);

/// The v2 bytes of the canonical form of `t` (record order is sorted
/// first; see trace::canonicalize -- within-epoch order carries no
/// semantics), in chunks of `epochs_per_chunk` epochs (0 means 1).
[[nodiscard]] std::string encode_v2(
    const trace::Trace& t, EpochId epochs_per_chunk = kDefaultEpochsPerChunk);

/// encode_v2, written to `os`.
void save_v2(const trace::Trace& t, std::ostream& os,
             EpochId epochs_per_chunk = kDefaultEpochsPerChunk);

/// Decodes and validates everything left in `is` as one complete v2
/// stream (labels validated, trailing junk rejected).  Every structural
/// violation throws std::runtime_error with a `trace:` prefix.
[[nodiscard]] trace::Trace load_v2(std::istream& is);

/// A v2 byte stream split at its natural object boundaries: the header,
/// one string per chunk, and the end-marker + trailer.  Fully validates
/// (it is a parse, not a scan); concatenating the pieces reproduces the
/// input byte-for-byte.  This is how the store chunks trace artifacts.
struct V2Sections {
  std::string header;
  std::vector<std::string> chunks;
  std::string trailer;
};
[[nodiscard]] V2Sections split_v2(std::string_view bytes);

}  // namespace cico::store

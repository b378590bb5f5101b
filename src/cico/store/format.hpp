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
// ChunkWriter/ChunkReader stream one chunk at a time, so
// `--stream-epochs`-style O(1)-memory consumers never materialize the
// whole trace; save_v2/load_v2 are the whole-trace conveniences on top.
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

/// One decoded chunk: the records of epochs [first_epoch,
/// first_epoch + epochs), in canonical order.
struct ChunkRecords {
  EpochId first_epoch = 0;
  EpochId epochs = 0;
  std::vector<trace::MissRecord> misses;
  std::vector<trace::BarrierRecord> barriers;
  std::string hash_hex;  ///< content hash of the encoded payload
};

/// Streaming v2 writer.  Records must arrive in nondecreasing epoch order
/// (the simulator's TraceWriter and save_v2 both satisfy this); memory is
/// O(one epoch group).  Call finish() exactly once -- it flushes the
/// final chunk and writes the end marker and trailer.
class ChunkWriter {
 public:
  ChunkWriter(std::ostream& os, std::vector<trace::RegionLabel> labels,
              EpochId epochs_per_chunk = kDefaultEpochsPerChunk);

  void add(const trace::MissRecord& m);
  void add(const trace::BarrierRecord& b);
  void finish();

  [[nodiscard]] std::uint64_t chunks_written() const { return chunks_; }

 private:
  void advance_to(EpochId epoch);
  void flush_group(bool final_chunk);

  std::ostream& os_;
  EpochId k_;
  EpochId group_first_ = 0;  ///< first epoch of the open group
  std::vector<trace::MissRecord> misses_;
  std::vector<trace::BarrierRecord> barriers_;
  std::uint64_t total_misses_ = 0;
  std::uint64_t total_barriers_ = 0;
  std::uint64_t chunks_ = 0;
  bool finished_ = false;
};

/// Streaming v2 reader.  The constructor parses and validates the header;
/// next() decodes one chunk (false once the end marker and trailer have
/// been validated, including the no-trailing-junk check).  Every
/// structural violation throws std::runtime_error with a `trace:` prefix.
class ChunkReader {
 public:
  explicit ChunkReader(std::istream& is);

  [[nodiscard]] const std::vector<trace::RegionLabel>& labels() const {
    return labels_;
  }
  [[nodiscard]] EpochId epochs_per_chunk() const { return k_; }

  bool next(ChunkRecords& out);

  /// Totals, valid once next() has returned false.
  [[nodiscard]] std::uint64_t chunks() const { return chunks_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t barriers() const { return barriers_; }

 private:
  std::istream& is_;
  std::vector<trace::RegionLabel> labels_;
  EpochId k_ = 1;
  bool done_ = false;
  bool have_prev_ = false;
  EpochId prev_first_ = 0;
  EpochId prev_span_ = 0;
  EpochId prev_last_epoch_ = 0;  ///< max record epoch in the previous chunk
  std::uint64_t chunks_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t barriers_ = 0;
};

/// Serializes the canonical form of `t` (record order is sorted first;
/// see trace::canonicalize -- within-epoch order carries no semantics).
void save_v2(const trace::Trace& t, std::ostream& os,
             EpochId epochs_per_chunk = kDefaultEpochsPerChunk);

/// Loads a complete v2 stream (labels validated, trailing junk rejected).
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

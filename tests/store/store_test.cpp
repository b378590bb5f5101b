// cico::store: the epoch-chunked v2 trace format, the content-addressed
// object store, and delta sync.  The load-bearing properties:
//
//   * v2 is a bijective function of the canonical trace (round trips,
//     deterministic bytes, record order independent);
//   * every malformed v2 stream -- truncation at any byte, a flipped
//     payload bit, reordered chunks, trailing junk -- fails with a
//     `trace:` error;
//   * two runs differing in one epoch share every other chunk (the
//     dedupe the store exists for), and sync moves only the delta.
#include "cico/store/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cico/common/hash.hpp"
#include "cico/common/varint.hpp"
#include "cico/store/format.hpp"
#include "cico/store/sync.hpp"
#include "cico/trace/trace.hpp"

namespace cico::store {
namespace {

namespace fs = std::filesystem;

/// A small multi-epoch trace with labels, both record kinds, and an
/// empty epoch (2) to exercise chunk skipping.
trace::Trace sample_trace() {
  trace::Trace t;
  t.labels.push_back({"A", 0x1000, 256, true});
  t.labels.push_back({"my array", 0x2000, 512, false});
  for (EpochId e : {0u, 1u, 3u, 4u}) {
    for (NodeId n = 0; n < 4; ++n) {
      t.misses.push_back({e, n, trace::MissKind::ReadMiss,
                          0x1000 + 8ull * n + 64ull * e, 8, 10 + n});
      t.misses.push_back({e, n, trace::MissKind::WriteMiss,
                          0x2000 + 8ull * n + 64ull * e, 4, 20 + n});
      t.barriers.push_back({e, n, 7, 100ull * (e + 1)});
    }
  }
  trace::canonicalize(t);
  return t;
}

std::string v2_bytes(const trace::Trace& t, EpochId k = 1) {
  std::ostringstream os;
  save_v2(t, os, k);
  return os.str();
}

trace::Trace load_v2_bytes(const std::string& bytes) {
  std::istringstream is(bytes);
  return load_v2(is);
}

void expect_trace_error(const std::string& bytes, const std::string& needle) {
  try {
    (void)load_v2_bytes(bytes);
    FAIL() << "expected rejection (" << needle << ")";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("trace:", 0), 0u) << msg;
    EXPECT_NE(msg.find(needle), std::string::npos) << msg;
  }
}

/// RAII temp directory for store tests.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/cachier_store_test_XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) path = tmpl;
  }
  ~TempDir() {
    if (!path.empty()) {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  }
  [[nodiscard]] std::string sub(const std::string& name) const {
    return path + "/" + name;
  }
};

// --- v2 format --------------------------------------------------------------

TEST(FormatV2Test, RoundTripsCanonicalTrace) {
  const trace::Trace t = sample_trace();
  for (EpochId k : {1u, 2u, 4u, 16u, 100u}) {
    const std::string bytes = v2_bytes(t, k);
    const trace::Trace back = load_v2_bytes(bytes);
    EXPECT_EQ(back.misses, t.misses) << "k=" << k;
    EXPECT_EQ(back.barriers, t.barriers) << "k=" << k;
    EXPECT_EQ(back.labels, t.labels) << "k=" << k;
    // Bijectivity: re-serializing the decoded trace reproduces the bytes.
    EXPECT_EQ(v2_bytes(back, k), bytes) << "k=" << k;
  }
}

TEST(FormatV2Test, RoundTripsEmptyTrace) {
  const trace::Trace back = load_v2_bytes(v2_bytes(trace::Trace{}));
  EXPECT_TRUE(back.misses.empty());
  EXPECT_TRUE(back.barriers.empty());
}

TEST(FormatV2Test, BytesAreRecordOrderIndependent) {
  // Within-epoch order carries no semantics (paper section 3.3), so a
  // reordered trace must serialize to the identical byte stream -- the
  // property that makes chunk hashes comparable across producers.
  trace::Trace t = sample_trace();
  const std::string a = v2_bytes(t);
  std::reverse(t.misses.begin(), t.misses.end());
  std::reverse(t.barriers.begin(), t.barriers.end());
  EXPECT_EQ(v2_bytes(t), a);
}

TEST(FormatV2Test, AgreesWithTextCodec) {
  const trace::Trace t = sample_trace();
  std::stringstream txt;
  trace::save_text(t, txt);
  trace::Trace via_text = trace::load_text(txt);
  trace::canonicalize(via_text);
  const trace::Trace via_v2 = load_v2_bytes(v2_bytes(t));
  EXPECT_EQ(via_text.misses, via_v2.misses);
  EXPECT_EQ(via_text.barriers, via_v2.barriers);
  EXPECT_EQ(via_text.labels, via_v2.labels);
}

/// The first_epoch field of each chunk split_v2 cuts from `bytes`.
std::vector<EpochId> chunk_first_epochs(const std::string& bytes) {
  std::vector<EpochId> firsts;
  for (const std::string& c : split_v2(bytes).chunks) {
    EXPECT_EQ(c.front(), '\x01');  // chunk tag, then first_epoch
    std::size_t pos = 1;
    firsts.push_back(static_cast<EpochId>(common::get_varint(c, pos)));
  }
  return firsts;
}

TEST(FormatV2Test, SplitSkipsEmptyEpochGroups) {
  // Epochs 0,1,3,4 hold records; 2 is empty and gets no chunk.
  EXPECT_EQ(chunk_first_epochs(v2_bytes(sample_trace(), 1)),
            (std::vector<EpochId>{0, 1, 3, 4}));
}

TEST(FormatV2Test, EpochsPerChunkGroups) {
  // [0,4) and [4,5).
  EXPECT_EQ(chunk_first_epochs(v2_bytes(sample_trace(), 4)),
            (std::vector<EpochId>{0, 4}));
}

TEST(FormatV2Test, EveryOneBitMutationFailsCleanlyOrRoundTrips) {
  // The decoder either rejects a mutated stream with a `trace:` error or
  // accepts exactly the bytes its decoded trace encodes to (a flipped
  // label character is still a valid stream); it never crashes.
  for (const EpochId k : {1u, 4u}) {
    const std::string bytes = v2_bytes(sample_trace(), k);
    ASSERT_GT(split_v2(bytes).chunks.size(), 1u);
    for (std::size_t off = 0; off < bytes.size(); ++off) {
      for (const int bit : {0x01, 0x80}) {
        std::string mutated = bytes;
        mutated[off] = static_cast<char>(mutated[off] ^ bit);
        try {
          const trace::Trace t = load_v2_bytes(mutated);
          // Accepted, so the header is intact up to K (magic, version 2).
          std::size_t pos = sizeof(kV2Magic) + 1;
          const auto k_read =
              static_cast<EpochId>(common::get_varint(mutated, pos));
          EXPECT_EQ(v2_bytes(t, k_read), mutated)
              << "k=" << k << " off=" << off << " bit=" << bit;
        } catch (const std::runtime_error& e) {
          EXPECT_EQ(std::string(e.what()).rfind("trace:", 0), 0u)
              << "k=" << k << " off=" << off << " bit=" << bit << ": "
              << e.what();
        }
      }
    }
  }
}

TEST(FormatV2Test, SplitSectionsConcatenateToInput) {
  const std::string bytes = v2_bytes(sample_trace());
  const V2Sections s = split_v2(bytes);
  EXPECT_EQ(s.chunks.size(), 4u);
  std::string glued = s.header;
  for (const auto& c : s.chunks) glued += c;
  glued += s.trailer;
  EXPECT_EQ(glued, bytes);
}

TEST(FormatV2Test, EveryStrictPrefixIsRejected) {
  const std::string bytes = v2_bytes(sample_trace());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW((void)load_v2_bytes(bytes.substr(0, cut)),
                 std::runtime_error)
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(FormatV2Test, FlippedPayloadBitFailsHashCheck) {
  const std::string bytes = v2_bytes(sample_trace());
  const V2Sections s = split_v2(bytes);
  // Flip one bit in the last byte of the first chunk's payload (the
  // length, hash, and framing stay intact, so only the hash check or the
  // canonical-order check can catch it).
  std::string mutated = bytes;
  const std::size_t off = s.header.size() + s.chunks[0].size() - 1;
  mutated[off] = static_cast<char>(mutated[off] ^ 0x01);
  expect_trace_error(mutated, "chunk hash mismatch");
}

TEST(FormatV2Test, RejectsReorderedChunks) {
  const std::string bytes = v2_bytes(sample_trace());
  V2Sections s = split_v2(bytes);
  std::swap(s.chunks[0], s.chunks[1]);
  std::string glued = s.header;
  for (const auto& c : s.chunks) glued += c;
  glued += s.trailer;
  expect_trace_error(glued, "chunks out of order");
}

TEST(FormatV2Test, RejectsTrailingJunk) {
  expect_trace_error(v2_bytes(sample_trace()) + "x", "trailing junk");
}

TEST(FormatV2Test, RejectsTamperedTrailerCounts) {
  const std::string bytes = v2_bytes(sample_trace());
  const V2Sections s = split_v2(bytes);
  std::string glued = s.header;
  // Drop the final chunk but keep the original trailer.
  for (std::size_t i = 0; i + 1 < s.chunks.size(); ++i) glued += s.chunks[i];
  glued += s.trailer;
  expect_trace_error(glued, "trailer counts mismatch");
}

TEST(FormatV2Test, RejectsBadMagicAndVersion) {
  expect_trace_error("cicotrc9whatever", "bad v2 header");
  std::string bytes = v2_bytes(sample_trace());
  bytes[8] = 3;  // version varint follows the 8-byte magic
  expect_trace_error(bytes, "unsupported v2 version");
}

// --- hostile v2 input ------------------------------------------------------
//
// Hand-built streams: a header, at most one epoch-0 chunk framed with the
// payload's real hash, and a trailer whose counts agree, so the only
// defect is the one each test plants.

/// Minimal-length LEB128 of v, as raw bytes.
std::string enc(std::uint64_t v) {
  std::string s;
  common::put_varint(s, v);
  return s;
}

/// The v2 magic followed by `rest` (version, K, labels, ...).
std::string v2_header(const std::string& rest) {
  return std::string(kV2Magic, sizeof(kV2Magic)) + rest;
}

/// A complete stream (K = 1) holding one chunk for epoch `first` with
/// `payload` verbatim.
std::string v2_one_chunk(const std::string& payload, std::uint64_t misses,
                         std::uint64_t barriers, EpochId first = 0) {
  common::ContentHasher h;
  h << payload;
  const auto digest = h.digest();
  return v2_header(enc(2) + enc(1) + enc(0)) + '\x01' + enc(first) + enc(1) +
         enc(payload.size()) +
         std::string(reinterpret_cast<const char*>(digest.data()),
                     digest.size()) +
         payload + '\x00' + enc(1) + enc(misses) + enc(barriers);
}

TEST(FormatV2HostileTest, HandBuiltStreamDecodes) {
  // The builder itself is sound: a well-formed miss and barrier load.
  const std::string miss = enc(0) + enc(1) + enc(0) + enc(0x2000) + enc(8) +
                           enc(3);
  const std::string bar = enc(0) + enc(1) + enc(7) + enc(555 << 1);
  const trace::Trace t = load_v2_bytes(
      v2_one_chunk(enc(1) + miss + enc(1) + bar, 1, 1));
  ASSERT_EQ(t.misses.size(), 1u);
  EXPECT_EQ(t.misses[0].addr, 0x1000u);  // zigzag of +0x1000
  ASSERT_EQ(t.barriers.size(), 1u);
  EXPECT_EQ(t.barriers[0].vt, 555u);
}

TEST(FormatV2HostileTest, RejectsNonCanonicalVarint) {
  // 0x80 0x00 decodes to 0 but is two bytes: a second spelling of the
  // same value, which the canonical codec must reject.
  expect_trace_error(v2_header(std::string("\x80\x00", 2)),
                     "non-canonical varint");
}

TEST(FormatV2HostileTest, RejectsVarintOverflowBitsAtShift63) {
  // Ten bytes with a tenth group above 1 carry bits past bit 63.
  expect_trace_error(v2_header(std::string(9, '\xff') + '\x7f'),
                     "overflows 64 bits");
}

TEST(FormatV2HostileTest, RejectsElevenByteVarint) {
  expect_trace_error(v2_header(std::string(10, '\x80') + '\x01'),
                     "overflows 64 bits");
}

TEST(FormatV2HostileTest, RejectsTruncatedVarint) {
  // A continuation bit that promises a byte the stream does not have.
  expect_trace_error(v2_header(enc(2) + '\x80'), "truncated varint");
}

TEST(FormatV2HostileTest, RejectsOutOfRangeFields) {
  const std::uint64_t too_big = 0x1'0000'0000ULL;  // > uint32 max
  expect_trace_error(v2_header(enc(2) + enc(too_big)),
                     "epochs per chunk out of range");
  const auto miss_with = [&](int field) {
    const std::uint64_t fields[] = {0, 1, 0, 0x2000, 8, 3};
    std::string p = enc(1);
    for (int i = 0; i < 6; ++i) p += enc(i == field ? too_big : fields[i]);
    return v2_one_chunk(p + enc(0), 1, 0);
  };
  // Epochs are deltas inside a chunk, so a too-large one leaves it.
  expect_trace_error(miss_with(0), "record epoch outside chunk");
  expect_trace_error(miss_with(1), "node out of range");
  expect_trace_error(miss_with(4), "size out of range");
  expect_trace_error(miss_with(5), "pc out of range");
  const auto barrier_with = [&](int field) {
    const std::uint64_t fields[] = {0, 1, 7, 555 << 1};
    std::string p = enc(0) + enc(1);
    for (int i = 0; i < 4; ++i) p += enc(i == field ? too_big : fields[i]);
    return v2_one_chunk(p, 0, 1);
  };
  expect_trace_error(barrier_with(0), "record epoch outside chunk");
  expect_trace_error(barrier_with(1), "node out of range");
  expect_trace_error(barrier_with(2), "barrier pc out of range");
}

TEST(FormatV2HostileTest, RejectsEpochDeltaThatWrapsBackIntoRange) {
  // In the chunk for epoch 1, a delta of 2^64 - 1 would wrap the record
  // epoch to 0: before the chunk, where the encoder never puts it.
  const std::uint64_t wrap = ~0ULL;
  const std::string miss = enc(wrap) + enc(1) + enc(0) + enc(0x2000) +
                           enc(8) + enc(3);
  expect_trace_error(v2_one_chunk(enc(1) + miss + enc(0), 1, 0, 1),
                     "record epoch outside chunk");
  const std::string bar = enc(wrap) + enc(1) + enc(7) + enc(555 << 1);
  expect_trace_error(v2_one_chunk(enc(0) + enc(1) + bar, 0, 1, 1),
                     "record epoch outside chunk");
}

TEST(FormatV2HostileTest, RejectsBadMissKind) {
  const std::string p = enc(1) + enc(0) + enc(0) + enc(3) + enc(0x2000) +
                        enc(8) + enc(1) + enc(0);
  expect_trace_error(v2_one_chunk(p, 1, 0), "bad miss kind");
}

TEST(FormatV2HostileTest, RejectsRegularFlagAboveOne) {
  const std::string label = enc(1) + "A" + enc(0x1000) + enc(64) + enc(2);
  expect_trace_error(v2_header(enc(2) + enc(1) + enc(1) + label),
                     "regular flag");
}

/// A complete, chunk-free stream (K = 1) whose two region labels overlap:
/// every field is well formed, only the labels' cross-check fails.
std::string v2_overlapping_labels() {
  const std::string a = enc(1) + "A" + enc(0x1000) + enc(256) + enc(0);
  const std::string b = enc(1) + "B" + enc(0x1080) + enc(64) + enc(0);
  return v2_header(enc(2) + enc(1) + enc(2) + a + b) + '\x00' + enc(0) +
         enc(0) + enc(0);
}

TEST(FormatV2HostileTest, SplitAndLoadRefuseOverlappingLabels) {
  // split_v2 (the store's parse) and load_v2 share one decoder, so both
  // refuse what the text loader refuses.
  const std::string bytes = v2_overlapping_labels();
  expect_trace_error(bytes, "trace: overlapping region labels 'A' and 'B'");
  try {
    (void)split_v2(bytes);
    FAIL() << "split_v2 accepted overlapping labels";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "trace: overlapping region labels 'A' and 'B'");
  }
}

// --- object store -----------------------------------------------------------

TEST(ObjectStoreTest, ConcurrentAtomicWritesOfOnePathNeverMix) {
  // Writers of one path (two cachierd workers, or a CLI and a cachierd on
  // one cache directory) each get their own temp file: no write fails,
  // the file always holds exactly one writer's bytes, and no temp file
  // is left behind.
  TempDir d;
  const std::string path = d.sub("entry.json");
  constexpr int kThreads = 4, kRounds = 25;
  std::atomic<int> failures{0}, torn{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      const std::string mine(256 * 1024, static_cast<char>('a' + t));
      for (int i = 0; i < kRounds; ++i) {
        try {
          write_file_atomic(path, mine);
        } catch (const std::exception&) {
          ++failures;
        }
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        const std::string got = ss.str();
        if (got.size() != mine.size() ||
            got.find_first_not_of(got.front()) != std::string::npos) {
          ++torn;
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  std::vector<std::string> names;
  for (const auto& de : fs::directory_iterator(d.path)) {
    names.push_back(de.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"entry.json"});
}

TEST(ObjectStoreTest, ValidatesNames) {
  EXPECT_TRUE(validate_name("run-2026.08.08_a"));
  EXPECT_FALSE(validate_name(""));
  EXPECT_FALSE(validate_name(".hidden"));
  EXPECT_FALSE(validate_name("a/b"));
  EXPECT_FALSE(validate_name("a b"));
}

TEST(ObjectStoreTest, BlobPutGetRoundTrip) {
  TempDir tmp;
  ObjectStore s(tmp.sub("st"));
  // 150000 bytes => three 64 KiB chunks; not a trace, so kind=blob.
  std::string blob(150000, '\0');
  std::uint64_t x = 1;  // aperiodic fill so no two 64 KiB chunks collide
  for (auto& c : blob) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    c = static_cast<char>(x >> 56);
  }
  const PutStats st = s.put("report.json", blob);
  EXPECT_EQ(st.kind, ArtifactKind::Blob);
  EXPECT_EQ(st.objects_total, 3u);
  EXPECT_EQ(st.objects_new, 3u);
  EXPECT_EQ(st.bytes_total, blob.size());
  EXPECT_EQ(s.get("report.json"), blob);
  // Same bytes under a second name: everything dedupes.
  const PutStats again = s.put("copy.json", blob);
  EXPECT_EQ(again.objects_new, 0u);
  EXPECT_EQ(again.bytes_new, 0u);
}

TEST(ObjectStoreTest, NormalizesTracesToV2AndGetReproduces) {
  TempDir tmp;
  ObjectStore s(tmp.sub("st"));
  const trace::Trace t = sample_trace();
  std::stringstream txt;
  trace::save_text(t, txt);
  const PutStats st = s.put("run1", txt.str());
  EXPECT_EQ(st.kind, ArtifactKind::TraceV2);
  EXPECT_EQ(st.objects_total, 6u);  // header + 4 epoch chunks + trailer
  const std::string stored = s.get("run1");
  EXPECT_TRUE(is_v2(stored));
  const trace::Trace back = load_v2_bytes(stored);
  EXPECT_EQ(back.misses, t.misses);
  EXPECT_EQ(back.barriers, t.barriers);
  EXPECT_EQ(back.labels, t.labels);

  // The v2 spelling of the same trace stores identical objects.
  const PutStats st2 = s.put("run1-v2", stored);
  EXPECT_EQ(st2.kind, ArtifactKind::TraceV2);
  EXPECT_EQ(st2.objects_new, 0u);
  EXPECT_EQ(s.get("run1-v2"), stored);
}

TEST(ObjectStoreTest, PutRefusesV2WithOverlappingLabels) {
  // load_v2 would refuse this artifact later, so the put must refuse it
  // now and store no manifest under the name.
  TempDir tmp;
  ObjectStore s(tmp.sub("st"));
  try {
    (void)s.put("bad", v2_overlapping_labels());
    FAIL() << "put stored a v2 trace with overlapping labels";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "trace: overlapping region labels 'A' and 'B'");
  }
  EXPECT_TRUE(s.ls().empty());
}

TEST(ObjectStoreTest, V1BinaryTraceIsAnOpaqueBlob) {
  // Only text and v2 are trace formats; `cicotrc1` bytes are stored and
  // returned verbatim like any other non-trace artifact.
  TempDir tmp;
  ObjectStore s(tmp.sub("st"));
  const std::string v1 = std::string("cicotrc1") + enc(0) + enc(0) + enc(0);
  const PutStats st = s.put("old", v1);
  EXPECT_EQ(st.kind, ArtifactKind::Blob);
  EXPECT_EQ(s.get("old"), v1);
}

TEST(ObjectStoreTest, OneEpochChangeCreatesOneNewObject) {
  // The dedupe the chunked format exists for: a run differing in a
  // single epoch shares the header, the trailer, and every other chunk.
  TempDir tmp;
  ObjectStore s(tmp.sub("st"));
  const trace::Trace a = sample_trace();
  trace::Trace b = a;
  for (auto& m : b.misses) {
    if (m.epoch == 3 && m.node == 2 && m.kind == trace::MissKind::ReadMiss) {
      m.addr += 8;
      break;
    }
  }
  const PutStats sa = s.put("run-a", v2_bytes(a));
  EXPECT_EQ(sa.objects_new, sa.objects_total);
  const PutStats sb = s.put("run-b", v2_bytes(b));
  EXPECT_EQ(sb.objects_total, sa.objects_total);
  EXPECT_EQ(sb.objects_new, 1u);  // only epoch 3's chunk

  // The same delta seen by the section splitter: header and trailer are
  // unchanged and exactly one chunk differs.
  const V2Sections xa = split_v2(v2_bytes(a));
  const V2Sections xb = split_v2(v2_bytes(b));
  EXPECT_EQ(xa.header, xb.header);
  EXPECT_EQ(xa.trailer, xb.trailer);
  ASSERT_EQ(xa.chunks.size(), xb.chunks.size());
  std::size_t dirty = 0;
  for (std::size_t i = 0; i < xa.chunks.size(); ++i) {
    dirty += xa.chunks[i] != xb.chunks[i] ? 1 : 0;
  }
  EXPECT_EQ(dirty, 1u);
}

TEST(ObjectStoreTest, LsListsManifestsSorted) {
  TempDir tmp;
  ObjectStore s(tmp.sub("st"));
  s.put("zeta", "zz");
  s.put("alpha", "aa");
  const auto ls = s.ls();
  ASSERT_EQ(ls.size(), 2u);
  EXPECT_EQ(ls[0].name, "alpha");
  EXPECT_EQ(ls[1].name, "zeta");
  EXPECT_EQ(ls[0].kind, ArtifactKind::Blob);
  EXPECT_EQ(ls[0].bytes, 2u);
}

TEST(ObjectStoreTest, GcRemovesUnreferencedObjects) {
  TempDir tmp;
  ObjectStore s(tmp.sub("st"));
  s.put("keep", std::string(100, 'k'));
  s.put("drop", std::string(100, 'd'));
  // Remove one manifest behind the store's back; its object is now garbage.
  fs::remove(tmp.sub("st") + "/manifests/drop.json");
  const GcStats gc = s.gc();
  EXPECT_EQ(gc.objects_removed, 1u);
  EXPECT_EQ(gc.bytes_freed, 100u);
  EXPECT_EQ(s.get("keep"), std::string(100, 'k'));
  EXPECT_EQ(s.gc().objects_removed, 0u);  // idempotent
}

TEST(ObjectStoreTest, CorruptObjectFailsGetWithStoreError) {
  TempDir tmp;
  ObjectStore s(tmp.sub("st"));
  const PutStats st = s.put("r", std::string(256, 'r'));
  ASSERT_EQ(st.objects_total, 1u);
  // Flip a byte in the single object file.
  const Manifest m = s.read_manifest("r");
  const std::string path = tmp.sub("st") + "/objects/" +
                           m.objects[0].hash_hex.substr(0, 2) + "/" +
                           m.objects[0].hash_hex;
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(10);
    f.put('X');
  }
  try {
    (void)s.get("r");
    FAIL() << "expected corrupt object to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("store:", 0), 0u) << msg;
    EXPECT_NE(msg.find("corrupt"), std::string::npos) << msg;
  }
}

TEST(ObjectStoreTest, OpenExistingRefusesNonStore) {
  TempDir tmp;
  EXPECT_THROW(ObjectStore(tmp.sub("nope"), ObjectStore::Open::kExisting),
               std::runtime_error);
}

// --- sync -------------------------------------------------------------------

TEST(SyncTest, EmptyDestinationGetsByteIdenticalArtifacts) {
  TempDir tmp;
  ObjectStore src(tmp.sub("src"));
  const trace::Trace t = sample_trace();
  src.put("trace", v2_bytes(t));
  src.put("blob", std::string(70000, 'b'));

  ObjectStore dst(tmp.sub("dst"));
  const SyncStats st = sync_stores(src, dst);
  EXPECT_EQ(st.manifests_total, 2u);
  EXPECT_EQ(st.manifests_copied, 2u);
  EXPECT_EQ(st.objects_copied, 8u);  // 6 trace sections + 2 blob chunks
  EXPECT_EQ(dst.get("trace"), src.get("trace"));
  EXPECT_EQ(dst.get("blob"), src.get("blob"));

  // Re-sync: nothing moves.
  const SyncStats again = sync_stores(src, dst);
  EXPECT_EQ(again.manifests_copied, 0u);
  EXPECT_EQ(again.objects_copied, 0u);
  EXPECT_EQ(again.bytes_copied, 0u);
}

TEST(SyncTest, OneEpochDeltaMovesOneChunk) {
  TempDir tmp;
  ObjectStore src(tmp.sub("src"));
  const trace::Trace a = sample_trace();
  src.put("run-a", v2_bytes(a));
  ObjectStore dst(tmp.sub("dst"));
  sync_stores(src, dst);

  trace::Trace b = a;
  for (auto& m : b.misses) {
    if (m.epoch == 1) {
      m.addr += 8;
      break;
    }
  }
  src.put("run-b", v2_bytes(b));
  const SyncStats st = sync_stores(src, dst);
  EXPECT_EQ(st.manifests_copied, 1u);  // run-b only
  EXPECT_EQ(st.objects_copied, 1u);    // epoch 1's chunk only
  EXPECT_EQ(dst.get("run-b"), src.get("run-b"));
}

}  // namespace
}  // namespace cico::store

#include "cico/trace/trace.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

namespace cico::trace {
namespace {

TEST(TraceWriterTest, RecordsAndEpochs) {
  TraceWriter w;
  w.record_miss(0, MissKind::ReadMiss, 0x100, 8, 5, 0);
  w.record_miss(1, MissKind::WriteMiss, 0x200, 8, 6, 0);
  w.record_barrier(0, 9, 1000, 0);
  w.record_barrier(1, 9, 1000, 0);
  w.end_epoch();
  w.record_miss(0, MissKind::WriteFault, 0x100, 8, 7, 1);
  Trace t = w.take();
  EXPECT_EQ(t.misses.size(), 3u);
  EXPECT_EQ(t.barriers.size(), 2u);
  EXPECT_EQ(t.num_epochs(), 2u);
}

TEST(TraceWriterTest, DeduplicatesWithinEpoch) {
  // WWT collected misses in a per-epoch hash table: identical events in
  // the same epoch collapse to one record.
  TraceWriter w;
  for (int i = 0; i < 10; ++i) {
    w.record_miss(0, MissKind::ReadMiss, 0x100, 8, 5, 0);
  }
  w.end_epoch();
  w.record_miss(0, MissKind::ReadMiss, 0x100, 8, 5, 1);  // new epoch: kept
  Trace t = w.take();
  EXPECT_EQ(t.misses.size(), 2u);
}

TEST(TraceWriterTest, DistinctKindsAreDistinctRecords) {
  TraceWriter w;
  w.record_miss(0, MissKind::ReadMiss, 0x100, 8, 5, 0);
  w.record_miss(0, MissKind::WriteFault, 0x100, 8, 5, 0);
  Trace t = w.take();
  EXPECT_EQ(t.misses.size(), 2u);
}

TEST(TraceTest, RegionLookupManyLabelsBinarySearch) {
  Trace t;
  for (int i = 0; i < 100; ++i) {
    t.labels.push_back(RegionLabel{"r" + std::to_string(i),
                                   0x1000 + static_cast<Addr>(i) * 0x100, 0x80,
                                   true});
  }
  for (int i = 0; i < 100; ++i) {
    const Addr base = 0x1000 + static_cast<Addr>(i) * 0x100;
    ASSERT_NE(t.region_of(base + 0x7f), nullptr);
    EXPECT_EQ(t.region_of(base + 0x7f)->label, "r" + std::to_string(i));
    EXPECT_EQ(t.region_of(base + 0x80), nullptr);  // gap between regions
  }
}

TEST(TraceTest, OverlappingLabelsThrow) {
  // region_of used to silently return the first of several overlapping
  // labels in declaration order; overlap is now a reported data error.
  Trace t;
  t.labels.push_back(RegionLabel{"A", 0x1000, 0x200, true});
  t.labels.push_back(RegionLabel{"B", 0x1100, 0x80, true});
  try {
    (void)t.region_of(0x1100);
    FAIL() << "expected overlap to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("overlapping"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'A'"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'B'"), std::string::npos);
  }
}

TEST(TraceTest, ZeroLengthLabelDoesNotOverlapOrMatch) {
  Trace t;
  t.labels.push_back(RegionLabel{"empty", 0x1000, 0, true});
  t.labels.push_back(RegionLabel{"real", 0x1000, 0x100, true});
  ASSERT_NE(t.region_of(0x1000), nullptr);
  EXPECT_EQ(t.region_of(0x1000)->label, "real");
}

TEST(TraceTest, RegionWrappingAddressSpaceThrows) {
  Trace t;
  t.labels.push_back(RegionLabel{"huge", ~Addr{0} - 8, 0x100, true});
  EXPECT_THROW(t.validate_labels(), std::runtime_error);
}

TEST(TraceTest, RegionLookup) {
  Trace t;
  t.labels.push_back(RegionLabel{"A", 0x1000, 0x100, true});
  t.labels.push_back(RegionLabel{"B", 0x2000, 0x80, false});
  ASSERT_NE(t.region_of(0x1000), nullptr);
  EXPECT_EQ(t.region_of(0x1000)->label, "A");
  EXPECT_EQ(t.region_of(0x10ff)->label, "A");
  EXPECT_EQ(t.region_of(0x1100), nullptr);
  EXPECT_EQ(t.region_of(0x2040)->label, "B");
  EXPECT_EQ(t.region_of(0x0), nullptr);
}

TEST(TraceIoTest, TextRoundTrip) {
  TraceWriter w;
  w.set_labels({RegionLabel{"A", 0x1000, 256, true},
                RegionLabel{"tree", 0x2000, 512, false}});
  w.record_miss(3, MissKind::ReadMiss, 0x1008, 8, 11, 0);
  w.record_miss(7, MissKind::WriteMiss, 0x1010, 4, 12, 0);
  w.record_barrier(3, 2, 555, 0);
  w.end_epoch();
  w.record_miss(3, MissKind::WriteFault, 0x2008, 8, 13, 1);
  Trace t = w.take();

  std::stringstream ss;
  save_text(t, ss);
  Trace back = load_text(ss);

  EXPECT_EQ(back.misses, t.misses);
  EXPECT_EQ(back.barriers, t.barriers);
  EXPECT_EQ(back.labels, t.labels);
}

TEST(TraceIoTest, LabelsWithSpacesRoundTrip) {
  // `ls >> r.label` used to truncate "my array" at the space and shift
  // every numeric field by one token.
  Trace t;
  t.labels.push_back(RegionLabel{"my array", 0x1000, 256, true});
  t.labels.push_back(RegionLabel{"tab\there", 0x2000, 128, false});
  t.labels.push_back(RegionLabel{"back\\slash", 0x3000, 64, true});
  t.labels.push_back(RegionLabel{"", 0x4000, 32, true});
  std::stringstream ss;
  save_text(t, ss);
  const Trace back = load_text(ss);
  EXPECT_EQ(back.labels, t.labels);
}

TEST(TraceIoTest, RejectsBadHeader) {
  std::stringstream ss("not a trace\n");
  try {
    (void)load_text(ss);
    FAIL() << "expected bad header to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

TEST(TraceIoTest, RejectsMalformedRecord) {
  std::stringstream ss("cico-trace v1\nM 1 2\n");
  EXPECT_THROW(load_text(ss), std::runtime_error);
}

TEST(TraceIoTest, RejectsUnknownTag) {
  std::stringstream ss("cico-trace v1\nZ 1 2 3\n");
  EXPECT_THROW(load_text(ss), std::runtime_error);
}

TEST(TraceIoTest, RejectsOutOfRangeMissKind) {
  // static_cast<MissKind>(kind) used to accept any integer here.
  std::stringstream ss("cico-trace v1\nM 0 0 3 4096 8 1\n");
  try {
    (void)load_text(ss);
    FAIL() << "expected bad kind to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("miss kind"), std::string::npos) << msg;
  }
}

TEST(TraceIoTest, RejectsTrailingJunkOnRecordLine) {
  std::stringstream ss("cico-trace v1\nB 0 0 1 555 junk\n");
  EXPECT_THROW(load_text(ss), std::runtime_error);
}

TEST(TraceIoTest, RejectsNumericGarbageWithLineNumber) {
  std::stringstream ss("cico-trace v1\nB 0 0 1 555\nM 1 0 1 0x10 8 2\n");
  try {
    (void)load_text(ss);
    FAIL() << "expected hex address to throw (format is decimal)";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIoTest, RejectsNegativeField) {
  std::stringstream ss("cico-trace v1\nM 0 -1 1 4096 8 2\n");
  EXPECT_THROW(load_text(ss), std::runtime_error);
}

TEST(TraceIoTest, RejectsOverlappingLabelsOnLoad) {
  std::stringstream ss(
      "cico-trace v1\nL A 4096 512 1\nL B 4352 512 1\n");
  EXPECT_THROW(load_text(ss), std::runtime_error);
}

TEST(TraceIoTest, RejectsBadLabelEscape) {
  std::stringstream ss("cico-trace v1\nL bad\\q 4096 64 1\n");
  EXPECT_THROW(load_text(ss), std::runtime_error);
}

TEST(TraceTest, NumEpochsOverflowAtEpochIdMax) {
  // `max_epoch + 1` used to wrap to 0 when a record sat at EpochId max.
  Trace t;
  t.misses.push_back(MissRecord{std::numeric_limits<EpochId>::max(), 0,
                                MissKind::ReadMiss, 0x10, 8, 1});
  try {
    (void)t.num_epochs();
    FAIL() << "expected overflow to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("trace:", 0), 0u) << e.what();
  }
  // One below the limit is representable.
  t.misses[0].epoch = std::numeric_limits<EpochId>::max() - 1;
  EXPECT_EQ(t.num_epochs(), std::numeric_limits<EpochId>::max());
}

TEST(TraceTest, CanonicalizeSortsAndPreservesMultiset) {
  Trace t;
  t.misses.push_back(MissRecord{1, 0, MissKind::ReadMiss, 0x20, 8, 2});
  t.misses.push_back(MissRecord{0, 1, MissKind::WriteMiss, 0x10, 4, 1});
  t.misses.push_back(MissRecord{0, 0, MissKind::ReadMiss, 0x30, 8, 3});
  t.barriers.push_back(BarrierRecord{1, 0, 9, 100});
  t.barriers.push_back(BarrierRecord{0, 1, 9, 50});
  t.barriers.push_back(BarrierRecord{0, 0, 9, 50});
  canonicalize(t);
  EXPECT_EQ(t.misses[0].epoch, 0u);
  EXPECT_EQ(t.misses[0].node, 0u);
  EXPECT_EQ(t.misses[1].node, 1u);
  EXPECT_EQ(t.misses[2].epoch, 1u);
  EXPECT_EQ(t.barriers[0].node, 0u);
  EXPECT_EQ(t.barriers[1].node, 1u);
  EXPECT_EQ(t.barriers[2].epoch, 1u);
  EXPECT_EQ(t.misses.size(), 3u);
  EXPECT_EQ(t.barriers.size(), 3u);
}

}  // namespace
}  // namespace cico::trace

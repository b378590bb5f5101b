#include "cico/cachier/sharing.hpp"

#include <gtest/gtest.h>

namespace cico::cachier {
namespace {

mem::CacheGeometry geo() {
  mem::CacheGeometry g;
  g.size_bytes = 4096;
  g.assoc = 4;
  g.block_bytes = 32;
  return g;
}

trace::MissRecord rec(EpochId e, NodeId n, trace::MissKind k, Addr a,
                      PcId pc = 1) {
  return trace::MissRecord{e, n, k, a, 8, pc};
}

TEST(SharingTest, WriteWriteRaceDetected) {
  trace::Trace t;
  t.misses = {
      rec(0, 0, trace::MissKind::WriteMiss, 0x1000),
      rec(0, 1, trace::MissKind::WriteMiss, 0x1000),
  };
  SharingAnalyzer sa(t, geo());
  EXPECT_TRUE(sa.epoch(0).race_blocks.contains(0x1000 / 32));
  ASSERT_EQ(sa.races().size(), 1u);
  EXPECT_EQ(sa.races()[0].addr, 0x1000u);
  EXPECT_EQ(sa.races()[0].nodes.size(), 2u);
}

TEST(SharingTest, ReadWriteRaceDetected) {
  trace::Trace t;
  t.misses = {
      rec(0, 0, trace::MissKind::WriteMiss, 0x1000),
      rec(0, 1, trace::MissKind::ReadMiss, 0x1000),
  };
  SharingAnalyzer sa(t, geo());
  EXPECT_TRUE(sa.epoch(0).is_drfs(0x1000 / 32));
}

TEST(SharingTest, ReadReadIsNotARace) {
  trace::Trace t;
  t.misses = {
      rec(0, 0, trace::MissKind::ReadMiss, 0x1000),
      rec(0, 1, trace::MissKind::ReadMiss, 0x1000),
  };
  SharingAnalyzer sa(t, geo());
  EXPECT_TRUE(sa.races().empty());
  // Same word from two nodes is TRUE sharing, not false sharing either.
  EXPECT_TRUE(sa.false_shares().empty());
}

TEST(SharingTest, SameNodeWritesAreNotARace) {
  trace::Trace t;
  t.misses = {
      rec(0, 0, trace::MissKind::WriteMiss, 0x1000),
      rec(0, 0, trace::MissKind::ReadMiss, 0x1000),
  };
  SharingAnalyzer sa(t, geo());
  EXPECT_TRUE(sa.races().empty());
}

TEST(SharingTest, AccessesInDifferentEpochsDoNotRace) {
  trace::Trace t;
  t.misses = {
      rec(0, 0, trace::MissKind::WriteMiss, 0x1000),
      rec(1, 1, trace::MissKind::WriteMiss, 0x1000),
  };
  SharingAnalyzer sa(t, geo());
  EXPECT_TRUE(sa.races().empty());
  EXPECT_FALSE(sa.epoch(0).is_drfs(0x1000 / 32));
  EXPECT_FALSE(sa.epoch(1).is_drfs(0x1000 / 32));
}

TEST(SharingTest, FalseSharingOnDifferentWords) {
  // "False sharing results from two or more processors accessing
  //  different addresses in the same cache block."
  trace::Trace t;
  t.misses = {
      rec(0, 0, trace::MissKind::WriteMiss, 0x1000),
      rec(0, 1, trace::MissKind::ReadMiss, 0x1008),  // same block, other word
  };
  SharingAnalyzer sa(t, geo());
  const Block b = 0x1000 / 32;
  EXPECT_TRUE(sa.epoch(0).fs_blocks.contains(b));
  EXPECT_TRUE(sa.epoch(0).is_drfs(b));
  EXPECT_TRUE(sa.races().empty());
  ASSERT_EQ(sa.false_shares().size(), 1u);
  EXPECT_EQ(sa.false_shares()[0].block, b);
}

TEST(SharingTest, ReadOnlyFalseSharingLiteralVsWriteRequired) {
  trace::Trace t;
  t.misses = {
      rec(0, 0, trace::MissKind::ReadMiss, 0x1000),
      rec(0, 1, trace::MissKind::ReadMiss, 0x1008),
  };
  // Default (write required -- see SharingOptions): read-only
  // co-residence is NOT false sharing.
  SharingAnalyzer def(t, geo());
  EXPECT_TRUE(def.false_shares().empty());
  // Paper-literal definition (A1 ablation knob): flagged even without a
  // write.
  SharingAnalyzer literal(t, geo(), SharingOptions{.fs_requires_write = false});
  EXPECT_EQ(literal.false_shares().size(), 1u);
}

TEST(SharingTest, RaceAndFalseSharingCanCoexistInOneBlock) {
  trace::Trace t;
  t.misses = {
      rec(0, 0, trace::MissKind::WriteMiss, 0x1000),
      rec(0, 1, trace::MissKind::WriteMiss, 0x1000),  // race on word 0x1000
      rec(0, 2, trace::MissKind::ReadMiss, 0x1010),   // false shares the block
  };
  SharingAnalyzer sa(t, geo());
  const Block b = 0x1000 / 32;
  EXPECT_TRUE(sa.epoch(0).race_blocks.contains(b));
  EXPECT_TRUE(sa.epoch(0).fs_blocks.contains(b));
}

TEST(SharingTest, ReportNamesRegionsAndSites) {
  trace::Trace t;
  t.labels.push_back(trace::RegionLabel{"C", 0x1000, 0x100, true});
  t.misses = {
      rec(0, 0, trace::MissKind::WriteMiss, 0x1008, 21),
      rec(0, 1, trace::MissKind::WriteMiss, 0x1008, 22),
  };
  SharingAnalyzer sa(t, geo());
  PcRegistry pcs;
  (void)pcs.intern("pad");  // ids up to 22 must exist
  for (int i = 0; i < 25; ++i) (void)pcs.intern("site" + std::to_string(i));
  const std::string rep = sa.report(t, pcs);
  EXPECT_NE(rep.find("C+8"), std::string::npos);
  EXPECT_NE(rep.find("1 potential data race"), std::string::npos);
}

TEST(SharingTest, RaceBetweenNode0AndNode64Detected) {
  // Regression for the word-level accessor masks built with
  // `1ULL << (n % 64)`: writers at nodes 0 and 64 collapsed onto one bit,
  // so their same-word write-write race was invisible.
  trace::Trace t;
  t.misses = {
      rec(0, 0, trace::MissKind::WriteMiss, 0x1000),
      rec(0, 64, trace::MissKind::WriteMiss, 0x1000),
  };
  SharingAnalyzer sa(t, geo());
  EXPECT_TRUE(sa.epoch(0).race_blocks.contains(0x1000 / 32));
  ASSERT_EQ(sa.races().size(), 1u);
  EXPECT_EQ(sa.races()[0].nodes.size(), 2u);
}

TEST(SharingTest, FalseSharingBetweenNode1AndNode65Detected) {
  // Different words of one block, writers 64 nodes apart: false sharing,
  // not a race -- and previously missed entirely (node 65 aliased onto
  // node 1, making the block look single-writer).
  trace::Trace t;
  t.misses = {
      rec(0, 1, trace::MissKind::WriteMiss, 0x1000),
      rec(0, 65, trace::MissKind::WriteMiss, 0x1008),
  };
  SharingAnalyzer sa(t, geo());
  EXPECT_FALSE(sa.epoch(0).race_blocks.contains(0x1000 / 32));
  EXPECT_TRUE(sa.epoch(0).fs_blocks.contains(0x1000 / 32));
}

// ---- Ordering contract ---------------------------------------------------

TEST(SharingTest, RaceNodesAndPcsFollowFirstSeenTraceOrder) {
  // Records of epoch 1 sit between the epoch-0 records; the race's lists
  // keep the epoch-0 first-seen order, not node or pc order.
  trace::Trace t;
  t.misses = {
      rec(0, 5, trace::MissKind::ReadMiss, 0x1000, 9),
      rec(1, 2, trace::MissKind::WriteMiss, 0x1000, 4),
      rec(0, 3, trace::MissKind::WriteMiss, 0x1000, 7),
      rec(1, 1, trace::MissKind::WriteMiss, 0x1000, 3),
      rec(0, 5, trace::MissKind::WriteMiss, 0x1000, 2),
      rec(0, 1, trace::MissKind::ReadMiss, 0x1000, 7),
  };
  SharingAnalyzer sa(t, geo());
  ASSERT_EQ(sa.races().size(), 2u);
  EXPECT_EQ(sa.races()[0].epoch, 0u);
  EXPECT_EQ(sa.races()[0].nodes, (std::vector<NodeId>{5, 3, 1}));
  EXPECT_EQ(sa.races()[0].pcs, (std::vector<PcId>{9, 7, 2}));
  EXPECT_EQ(sa.races()[1].epoch, 1u);
  EXPECT_EQ(sa.races()[1].nodes, (std::vector<NodeId>{2, 1}));
  EXPECT_EQ(sa.races()[1].pcs, (std::vector<PcId>{4, 3}));
}

TEST(SharingTest, TwoAddressesInOneWordAreTwoWordsForFalseSharing) {
  // 0x1000 and 0x1004 share an 8-byte word but are different addresses:
  // two nodes on them falsely share the block and do not race.
  trace::Trace t;
  t.misses = {
      rec(0, 0, trace::MissKind::WriteMiss, 0x1000),
      rec(0, 1, trace::MissKind::WriteMiss, 0x1004),
  };
  SharingAnalyzer sa(t, geo());
  EXPECT_TRUE(sa.races().empty());
  ASSERT_EQ(sa.false_shares().size(), 1u);
  EXPECT_EQ(sa.false_shares()[0].block, 0x1000u / 32);
  EXPECT_EQ(sa.false_shares()[0].nodes, (std::vector<NodeId>{0, 1}));
}

TEST(SharingTest, RacesComeOutInAscendingAddressOrderWithinAnEpoch) {
  trace::Trace t;
  for (const Addr a : {0x3008, 0x1010, 0x2000, 0x1008, 0x3000}) {
    t.misses.push_back(rec(0, 0, trace::MissKind::WriteMiss, a));
  }
  for (const Addr a : {0x1008, 0x3000, 0x2000, 0x3008, 0x1010}) {
    t.misses.push_back(rec(0, 1, trace::MissKind::WriteMiss, a));
  }
  SharingAnalyzer sa(t, geo());
  std::vector<Addr> addrs;
  for (const RaceSite& r : sa.races()) addrs.push_back(r.addr);
  EXPECT_EQ(addrs,
            (std::vector<Addr>{0x1008, 0x1010, 0x2000, 0x3000, 0x3008}));
}

}  // namespace
}  // namespace cico::cachier

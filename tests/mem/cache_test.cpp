#include "cico/mem/cache.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace cico::mem {
namespace {

CacheGeometry small_geo() {
  CacheGeometry g;
  g.size_bytes = 256;  // 8 blocks
  g.assoc = 2;         // 4 sets
  g.block_bytes = 32;
  return g;
}

TEST(CacheGeometryTest, PaperDefaults) {
  CacheGeometry g;
  EXPECT_EQ(g.size_bytes, 256u << 10);
  EXPECT_EQ(g.assoc, 4u);
  EXPECT_EQ(g.block_bytes, 32u);
  EXPECT_EQ(g.num_blocks(), 8192u);
  EXPECT_EQ(g.num_sets(), 2048u);
}

TEST(CacheGeometryTest, BlockArithmetic) {
  CacheGeometry g = small_geo();
  EXPECT_EQ(g.block_of(0), 0u);
  EXPECT_EQ(g.block_of(31), 0u);
  EXPECT_EQ(g.block_of(32), 1u);
  EXPECT_EQ(g.base_of(3), 96u);
  EXPECT_EQ(g.first_block(33), 1u);
  EXPECT_EQ(g.last_block(33, 1), 1u);
  EXPECT_EQ(g.last_block(0, 32), 0u);
  EXPECT_EQ(g.last_block(0, 33), 1u);
  EXPECT_EQ(g.last_block(30, 4), 1u);  // straddles a block boundary
}

TEST(CacheTest, InsertAndLookup) {
  Cache c(small_geo());
  EXPECT_EQ(c.state_of(5), LineState::Invalid);
  EXPECT_FALSE(c.insert(5, LineState::Shared).has_value());
  EXPECT_EQ(c.state_of(5), LineState::Shared);
  EXPECT_TRUE(c.contains(5));
  EXPECT_EQ(c.occupancy(), 1u);
}

TEST(CacheTest, ReinsertUpdatesState) {
  Cache c(small_geo());
  c.insert(5, LineState::Shared);
  EXPECT_FALSE(c.insert(5, LineState::Exclusive).has_value());
  EXPECT_EQ(c.state_of(5), LineState::Exclusive);
  EXPECT_EQ(c.occupancy(), 1u);
}

TEST(CacheTest, SetConflictEvictsLru) {
  // 4 sets: blocks 0, 4, 8 map to set 0; assoc 2.
  Cache c(small_geo());
  c.insert(0, LineState::Shared);
  c.insert(4, LineState::Exclusive);
  auto v = c.insert(8, LineState::Shared);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->block, 0u);  // 0 is LRU
  EXPECT_EQ(v->state, LineState::Shared);
  EXPECT_EQ(c.state_of(0), LineState::Invalid);
  EXPECT_EQ(c.state_of(4), LineState::Exclusive);
  EXPECT_EQ(c.state_of(8), LineState::Shared);
}

TEST(CacheTest, AccessHitChangesVictim) {
  Cache c(small_geo());
  c.insert(0, LineState::Shared);
  c.insert(4, LineState::Exclusive);
  EXPECT_EQ(c.access(0, false), LineState::Shared);  // 4 becomes LRU
  auto v = c.insert(8, LineState::Shared);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->block, 4u);
}

TEST(CacheTest, WriteToSharedLineIsNoHit) {
  Cache c(small_geo());
  c.insert(0, LineState::Shared);
  c.insert(4, LineState::Exclusive);
  // A write fault reports the Shared state but leaves 0 as LRU.
  EXPECT_EQ(c.access(0, true), LineState::Shared);
  auto v = c.insert(8, LineState::Shared);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->block, 0u);
}

TEST(CacheTest, AccessMissingReturnsInvalid) {
  Cache c(small_geo());
  EXPECT_EQ(c.access(123, false), LineState::Invalid);
  EXPECT_EQ(c.occupancy(), 0u);
}

TEST(CacheTest, EraseReturnsPriorState) {
  Cache c(small_geo());
  c.insert(7, LineState::Exclusive);
  EXPECT_EQ(c.erase(7), LineState::Exclusive);
  EXPECT_EQ(c.erase(7), LineState::Invalid);
  EXPECT_EQ(c.occupancy(), 0u);
}

TEST(CacheTest, SetStateOnMissingFails) {
  Cache c(small_geo());
  EXPECT_FALSE(c.set_state(9, LineState::Shared));
  c.insert(9, LineState::Exclusive);
  EXPECT_TRUE(c.set_state(9, LineState::Shared));
  EXPECT_EQ(c.state_of(9), LineState::Shared);
}

TEST(CacheTest, FlushVisitsAllAndEmpties) {
  Cache c(small_geo());
  c.insert(1, LineState::Shared);
  c.insert(2, LineState::Exclusive);
  c.insert(3, LineState::Shared);
  std::vector<std::pair<Block, LineState>> seen;
  c.flush([&](Block b, LineState s) { seen.emplace_back(b, s); });
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(c.occupancy(), 0u);
  for (Block b : {1, 2, 3}) EXPECT_EQ(c.state_of(b), LineState::Invalid);
}

TEST(CacheTest, ForEachSeesResidentLines) {
  Cache c(small_geo());
  c.insert(1, LineState::Shared);
  c.insert(6, LineState::Exclusive);
  int count = 0;
  c.for_each([&](Block, LineState) { ++count; });
  EXPECT_EQ(count, 2);
  EXPECT_EQ(c.occupancy(), 2u);
}

/// Property: after any interleaving of inserts, occupancy() equals the
/// number of distinct resident blocks and never exceeds capacity.
TEST(CacheTest, OccupancyBoundedByCapacity) {
  CacheGeometry g = small_geo();
  Cache c(g);
  for (Block b = 0; b < 100; ++b) {
    c.insert(b * 3 % 64, b % 2 ? LineState::Shared : LineState::Exclusive);
    EXPECT_LE(c.occupancy(), g.num_blocks());
    int resident = 0;
    c.for_each([&](Block, LineState) { ++resident; });
    EXPECT_EQ(static_cast<std::size_t>(resident), c.occupancy());
  }
}

/// LRU order within a set is strictly maintained over a long access mix.
TEST(CacheTest, LruOrderProperty) {
  CacheGeometry g = small_geo();
  Cache c(g);
  // Set 0 holds blocks congruent to 0 mod 4.  Insert 0,4; read-hit in a
  // known pattern; verify eviction order matches least-recent use.
  c.insert(0, LineState::Shared);
  c.insert(4, LineState::Shared);
  c.access(0, false);
  c.access(4, false);
  c.access(0, false);  // LRU is 4
  auto v1 = c.insert(8, LineState::Shared);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->block, 4u);
  // Now resident: 0 (older), 8 (newer); LRU is 0.
  auto v2 = c.insert(12, LineState::Shared);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(v2->block, 0u);
}

}  // namespace
}  // namespace cico::mem

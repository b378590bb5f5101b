#include "cico/mem/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
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

TEST(CacheTest, RejectsGeometriesItCannotIndexByMask) {
  // A lookup indexes by shift and mask, so a set count or block size
  // that is not a power of two is refused at construction.
  CacheGeometry three_sets = small_geo();
  three_sets.size_bytes = 6 * 32;  // 6 blocks, 2-way: 3 sets
  ASSERT_EQ(three_sets.num_sets(), 3u);
  EXPECT_THROW(Cache{three_sets}, std::invalid_argument);
  CacheGeometry three_way;  // 256 KB, 3-way: 2730 sets
  three_way.assoc = 3;
  EXPECT_THROW(Cache{three_way}, std::invalid_argument);
  CacheGeometry odd_block = small_geo();
  odd_block.block_bytes = 24;
  EXPECT_THROW(Cache{odd_block}, std::invalid_argument);
  CacheGeometry no_ways = small_geo();
  no_ways.assoc = 0;
  EXPECT_THROW(Cache{no_ways}, std::invalid_argument);
  // The associativity itself need not be a power of two.
  CacheGeometry ok = small_geo();
  ok.assoc = 3;
  ok.size_bytes = 4 * 3 * 32;  // 4 sets
  Cache c(ok);
  EXPECT_EQ(c.block_of(ok.base_of(13) + 5), 13u);
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

/// The line holding block b in one set of the reference model.
template <class Set>
auto find(Set& set, Block b) {
  return std::find_if(set.begin(), set.end(),
                      [b](const auto& l) { return l.first == b; });
}

/// Reference LRU cache: one std::list per set, MRU at the front.
class ListLru {
 public:
  using Line = std::pair<Block, LineState>;

  explicit ListLru(const CacheGeometry& g) : g_(g), sets_(g.num_sets()) {}

  LineState state_of(Block b) const {
    const auto& set = sets_[g_.set_of(b)];
    const auto it = find(set, b);
    return it == set.end() ? LineState::Invalid : it->second;
  }

  LineState access(Block b, bool write) {
    auto& set = sets_[g_.set_of(b)];
    const auto it = find(set, b);
    if (it == set.end()) return LineState::Invalid;
    const LineState s = it->second;
    if (s == LineState::Exclusive || !write) set.splice(set.begin(), set, it);
    return s;
  }

  std::optional<Line> insert(Block b, LineState s) {
    auto& set = sets_[g_.set_of(b)];
    const auto it = find(set, b);
    if (it != set.end()) {
      it->second = s;
      set.splice(set.begin(), set, it);
      return std::nullopt;
    }
    std::optional<Line> victim;
    if (set.size() == g_.assoc) {
      victim = set.back();
      set.pop_back();
    }
    set.emplace_front(b, s);
    return victim;
  }

  bool set_state(Block b, LineState s) {
    auto& set = sets_[g_.set_of(b)];
    const auto it = find(set, b);
    if (it == set.end()) return false;
    it->second = s;
    return true;
  }

  LineState erase(Block b) {
    auto& set = sets_[g_.set_of(b)];
    const auto it = find(set, b);
    if (it == set.end()) return LineState::Invalid;
    const LineState s = it->second;
    set.erase(it);
    return s;
  }

  /// Every resident line, set by set, MRU to LRU.
  std::vector<Line> lines() const {
    std::vector<Line> out;
    for (const auto& set : sets_) out.insert(out.end(), set.begin(), set.end());
    return out;
  }

  std::size_t occupancy() const { return lines().size(); }

  void clear() {
    for (auto& set : sets_) set.clear();
  }

 private:
  CacheGeometry g_;
  std::vector<std::list<Line>> sets_;
};

std::vector<ListLru::Line> resident(const Cache& c) {
  std::vector<ListLru::Line> out;
  c.for_each([&](Block b, LineState s) { out.emplace_back(b, s); });
  return out;
}

/// Differential: seeded random operation sequences against the list model
/// (which picks a set by modulo) at several associativities and set
/// counts, including ones that leave sets partly filled and rows that are
/// not a multiple of four ways.
TEST(CacheTest, MatchesListLruModel) {
  for (const std::uint32_t sets : {1U, 4U, 16U}) {
    for (const std::uint32_t assoc : {1U, 2U, 3U, 4U, 8U}) {
      for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        SCOPED_TRACE("sets " + std::to_string(sets) + " assoc " +
                     std::to_string(assoc) + " seed " + std::to_string(seed));
        CacheGeometry g;
        g.block_bytes = 32;
        g.assoc = assoc;
        g.size_bytes = sets * assoc * g.block_bytes;
        Cache c(g);
        ListLru ref(g);
        std::mt19937_64 rng(seed * 1000 + assoc);
        // Each set sees assoc + 3 distinct blocks, block 0 included (tag 0
        // is also the value of unfilled ways).
        const std::uint64_t span = std::uint64_t{sets} * (assoc + 3);
        const auto state = [&] {
          return rng() % 2 == 0 ? LineState::Shared : LineState::Exclusive;
        };
        for (int step = 0; step < 4000; ++step) {
          const Block b = rng() % span;
          const std::uint64_t op = rng() % 100;
          if (op < 35) {
            const LineState s = state();
            const auto got = c.insert(b, s);
            const auto want = ref.insert(b, s);
            ASSERT_EQ(got.has_value(), want.has_value()) << "insert " << b;
            if (got) {
              EXPECT_EQ(got->block, want->first) << "victim of " << b;
              EXPECT_EQ(got->state, want->second) << "victim of " << b;
            }
          } else if (op < 75) {
            const bool write = op >= 55;
            ASSERT_EQ(c.access(b, write), ref.access(b, write))
                << "access " << b;
          } else if (op < 87) {
            ASSERT_EQ(c.erase(b), ref.erase(b)) << "erase " << b;
          } else if (op < 97) {
            const LineState s = state();
            ASSERT_EQ(c.set_state(b, s), ref.set_state(b, s))
                << "set_state " << b;
          } else {
            std::vector<ListLru::Line> flushed;
            c.flush([&](Block fb, LineState fs) {
              flushed.emplace_back(fb, fs);
            });
            ASSERT_EQ(flushed, ref.lines()) << "flush";
            ref.clear();
          }
          const Block probe = rng() % span;
          ASSERT_EQ(c.state_of(probe), ref.state_of(probe))
              << "probe " << probe;
          ASSERT_EQ(c.occupancy(), ref.occupancy()) << "step " << step;
          ASSERT_EQ(resident(c), ref.lines()) << "step " << step;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cico::mem

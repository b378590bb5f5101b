// cico::kern BlockSet / NodeMask suite.
//
// BlockSet is driven through randomized set algebra against a std::set
// oracle, plus the word-boundary / empty / full / growth edge cases the
// dense layout is most likely to get wrong, the word-scan paths (equality,
// iteration across zero runs, sparse union) and the NodeMask units.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "cico/kern/bitset.hpp"
#include "cico/kern/nodemask.hpp"

namespace cico::kern {
namespace {

// ---------------------------------------------------------------------------
// BlockSet vs std::set oracle.
// ---------------------------------------------------------------------------

std::set<std::uint64_t> to_std(const BlockSet& s) {
  return {s.begin(), s.end()};
}

TEST(BlockSet, RandomizedAlgebraMatchesStdSet) {
  for (const std::uint64_t seed : {0xB10CULL, 0xB10CULL + 1}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    for (int trial = 0; trial < 40; ++trial) {
      BlockSet x, y;
      std::set<std::uint64_t> rx, ry;
      // Keys straddle several words and start away from zero so growth
      // has to move base_ both directions.
      std::uniform_int_distribution<std::uint64_t> key(900, 1500);
      for (int i = 0; i < 120; ++i) {
        const std::uint64_t k = key(rng);
        switch (rng() % 4) {
          case 0: x.insert(k); rx.insert(k); break;
          case 1: y.insert(k); ry.insert(k); break;
          case 2: x.erase(k); rx.erase(k); break;
          default: y.erase(k); ry.erase(k); break;
        }
      }
      ASSERT_EQ(to_std(x), rx);
      ASSERT_EQ(to_std(y), ry);
      ASSERT_EQ(x.size(), rx.size());

      BlockSet u = x, i = x, d = x;
      u |= y;
      i &= y;
      d -= y;
      std::set<std::uint64_t> ru = rx, ri, rd;
      ru.insert(ry.begin(), ry.end());
      std::set_intersection(rx.begin(), rx.end(), ry.begin(), ry.end(),
                            std::inserter(ri, ri.end()));
      std::set_difference(rx.begin(), rx.end(), ry.begin(), ry.end(),
                          std::inserter(rd, rd.end()));
      EXPECT_EQ(to_std(u), ru);
      EXPECT_EQ(to_std(i), ri);
      EXPECT_EQ(to_std(d), rd);
      EXPECT_EQ(u.size(), ru.size());
      EXPECT_EQ(i.size(), ri.size());
      EXPECT_EQ(d.size(), rd.size());
      EXPECT_EQ(x == y, rx == ry);

      // Iteration is ascending (plan writers rely on it).
      std::vector<std::uint64_t> order(u.begin(), u.end());
      EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    }
  }
}

TEST(BlockSet, WordBoundaryEdges) {
  BlockSet s;
  const std::uint64_t edges[] = {0, 63, 64, 65, 127, 128};
  for (std::uint64_t e : edges) EXPECT_TRUE(s.insert(e));
  for (std::uint64_t e : edges) {
    EXPECT_TRUE(s.contains(e)) << e;
    EXPECT_FALSE(s.insert(e)) << e;  // duplicate insert reports false
  }
  EXPECT_FALSE(s.contains(1));
  EXPECT_FALSE(s.contains(62));
  EXPECT_FALSE(s.contains(126));
  EXPECT_FALSE(s.contains(129));
  EXPECT_EQ(s.size(), 6U);
  EXPECT_EQ(to_std(s), std::set<std::uint64_t>(std::begin(edges),
                                               std::end(edges)));
  EXPECT_EQ(s.erase(64), 1U);
  EXPECT_EQ(s.erase(64), 0U);
  EXPECT_FALSE(s.contains(64));
  EXPECT_EQ(s.size(), 5U);
}

TEST(BlockSet, EmptyAndFullSets) {
  BlockSet e;
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.size(), 0U);
  EXPECT_EQ(e.begin(), e.end());
  EXPECT_FALSE(e.contains(0));

  // Algebra with an empty operand.
  BlockSet s{10, 20, 30};
  BlockSet u = s; u |= e;
  BlockSet i = s; i &= e;
  BlockSet d = s; d -= e;
  EXPECT_EQ(u, s);
  EXPECT_TRUE(i.empty());
  EXPECT_EQ(d, s);
  BlockSet i2 = e; i2 &= s;
  EXPECT_TRUE(i2.empty());

  // A fully-populated word span.
  BlockSet full;
  for (std::uint64_t v = 64; v < 320; ++v) full.insert(v);
  EXPECT_EQ(full.size(), 256U);
  std::uint64_t expect = 64;
  for (const std::uint64_t v : full) EXPECT_EQ(v, expect++);
  EXPECT_EQ(expect, 320U);
  full -= full;  // NOLINT: self-subtraction empties
  EXPECT_TRUE(full.empty());
}

TEST(BlockSet, DisjointRangesUnionAcrossGrowth) {
  BlockSet lo{5};
  BlockSet hi{100000};
  lo |= hi;
  EXPECT_EQ(to_std(lo), (std::set<std::uint64_t>{5, 100000}));
  BlockSet i = lo;
  i &= hi;
  EXPECT_EQ(to_std(i), (std::set<std::uint64_t>{100000}));
  EXPECT_EQ(lo == hi, false);
  // Equality across different internal bases.
  BlockSet a{70};
  BlockSet b;
  b.insert(500);
  b.insert(70);
  b.erase(500);
  EXPECT_EQ(a, b);
}

TEST(BlockSet, ClearKeepsWorking) {
  BlockSet s{1, 2, 3};
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(2));
  s.insert(7);
  EXPECT_EQ(to_std(s), (std::set<std::uint64_t>{7}));
}

/// A 9-word set with every even bit set (the 0x5555... pattern), starting
/// at key `lo`.
BlockSet nine_word_pattern(std::uint64_t lo) {
  BlockSet s;
  for (std::uint64_t k = lo; k < lo + 9 * 64; k += 2) s.insert(k);
  return s;
}

TEST(BlockSet, EqualitySeesADifferenceInEveryWord) {
  const std::uint64_t lo = 640;
  const BlockSet a = nine_word_pattern(lo);
  // b: same members, same range.  c: same members, but its range was
  // grown below and above a's (a different base and word count).
  BlockSet b = nine_word_pattern(lo);
  BlockSet c = nine_word_pattern(lo);
  c.insert(lo - 3 * 64);
  c.insert(lo + 20 * 64);
  c.erase(lo - 3 * 64);
  c.erase(lo + 20 * 64);
  ASSERT_EQ(a, b);
  ASSERT_EQ(a, c);
  for (std::uint64_t w = 0; w < 9; ++w) {
    const std::uint64_t set_bit = lo + w * 64 + 2 * (w * 7 % 32);
    for (const BlockSet* base : {&b, &c}) {
      SCOPED_TRACE(base == &b ? "same range" : "different range");
      // One bit flipped: the member counts differ.
      BlockSet flipped = *base;
      flipped.erase(set_bit);
      EXPECT_NE(a, flipped) << "word " << w;
      // One member moved to its clear neighbour: equal counts, so only
      // the word compare can tell the sets apart.
      BlockSet moved = flipped;
      moved.insert(set_bit + 1);
      EXPECT_EQ(moved.size(), a.size());
      EXPECT_NE(a, moved) << "word " << w;
      EXPECT_NE(moved, a) << "word " << w;
    }
  }
}

TEST(BlockSet, IterationSkipsLongRunsOfZeroWords) {
  // Members separated by zero-word gaps of growing length, including gaps
  // left behind by erased members.
  BlockSet s;
  std::set<std::uint64_t> ref;
  std::uint64_t k = 3;
  for (std::uint64_t gap : {0U, 1U, 2U, 3U, 4U, 5U, 7U, 8U, 9U, 16U, 17U,
                            100U, 4096U}) {
    k += gap * 64 + 64;
    s.insert(k);
    ref.insert(k);
    s.insert(k + 32);  // then erased: the word before the next member
    s.erase(k + 32);
  }
  EXPECT_EQ(to_std(s), ref);

  BlockSet far;
  far.insert(0);
  far.insert(64 * 5000 + 17);
  far.erase(0);
  ASSERT_NE(far.begin(), far.end());
  EXPECT_EQ(*far.begin(), 64U * 5000 + 17);
  EXPECT_EQ(std::next(far.begin()), far.end());
}

TEST(BlockSet, UnionFromSparseSource) {
  // The source's members sit in the middle of a range padded with zero
  // words on both sides.
  BlockSet src;
  src.insert(10);
  src.insert(64 * 300 + 1);
  src.insert(64 * 301 + 63);
  src.insert(64 * 900);
  src.erase(10);
  src.erase(64 * 900);
  for (const std::uint64_t dst_key : {5ULL, 64ULL * 300 + 2, 64ULL * 2000}) {
    SCOPED_TRACE(dst_key);
    BlockSet dst{dst_key};
    dst |= src;
    std::set<std::uint64_t> ref = to_std(src);
    ref.insert(dst_key);
    EXPECT_EQ(to_std(dst), ref);
    EXPECT_EQ(dst.size(), ref.size());
  }
  BlockSet self = src;
  self |= self;  // NOLINT: self-union is a no-op
  EXPECT_EQ(self, src);
}

// ---------------------------------------------------------------------------
// NodeMask -- including the >=64-node aliasing regression.
// ---------------------------------------------------------------------------

TEST(NodeMask, NodesBeyond64DoNotAliasOntoLowNodes) {
  // The bug this type replaced: `1ULL << (n % 64)` made node 64 and node 0
  // indistinguishable, so a writer at node 64 looked like a second access
  // by node 0.
  NodeMask m;
  m.set(64);
  EXPECT_TRUE(m.test(64));
  EXPECT_FALSE(m.test(0));
  EXPECT_TRUE(m.is_sole(64));
  EXPECT_FALSE(m.is_sole(0));
  EXPECT_EQ(m.count(), 1);

  m.set(0);
  EXPECT_EQ(m.count(), 2);
  EXPECT_FALSE(m.is_sole(0));
  EXPECT_FALSE(m.is_sole(64));

  NodeMask wide;
  wide.set(63);
  wide.set(64);
  wide.set(127);
  wide.set(128);
  wide.set(191);
  EXPECT_EQ(wide.count(), 5);
  for (std::uint32_t n : {63U, 64U, 127U, 128U, 191U}) EXPECT_TRUE(wide.test(n));
  for (std::uint32_t n : {0U, 62U, 65U, 126U, 129U, 190U, 192U}) {
    EXPECT_FALSE(wide.test(n)) << n;
  }
}

TEST(NodeMask, UnionHelpersIgnoreTrailingZeroSpill) {
  NodeMask a, b;
  a.set(3);
  b.set(3);
  b.set(200);  // allocate spill...
  NodeMask c;
  c.set(3);
  EXPECT_NE(a, b);
  // ...then make the spill all-zero again via an equality-relevant path:
  // masks with different hi_ allocations but identical bits must compare
  // equal and union identically.
  NodeMask zero_spill;
  zero_spill.set(100);
  NodeMask plain;
  EXPECT_EQ(NodeMask::count_union(zero_spill, plain), 1);
  EXPECT_TRUE(NodeMask::union_equals(zero_spill, plain, plain, zero_spill));
  EXPECT_FALSE(NodeMask::union_equals(zero_spill, plain, a, c));
  EXPECT_EQ(NodeMask::count_union(a, b), 2);
  EXPECT_EQ(NodeMask::count_union(a, c), 1);

  NodeMask u = a;
  u |= b;
  EXPECT_EQ(u.count(), 2);
  EXPECT_TRUE(u.test(3));
  EXPECT_TRUE(u.test(200));
  EXPECT_FALSE(u.any() && !a.any());
}

std::vector<std::uint32_t> members(const NodeMask& m) {
  std::vector<std::uint32_t> out;
  for (const std::uint32_t n : m) out.push_back(n);
  return out;
}

TEST(NodeMask, IteratesAscendingAcrossTheInlineWord) {
  // Dir1SW sends invalidations and post-store pushes in this order, so it
  // must hold across the inline word and the spill.
  NodeMask m;
  EXPECT_TRUE(members(m).empty());
  for (std::uint32_t n : {127U, 64U, 0U, 63U}) m.set(n);
  EXPECT_EQ(members(m), (std::vector<std::uint32_t>{0, 63, 64, 127}));
  EXPECT_EQ(m.lowest(), 0U);

  NodeMask spilled_only;
  spilled_only.set(127);
  spilled_only.set(64);
  EXPECT_EQ(members(spilled_only), (std::vector<std::uint32_t>{64, 127}));
  EXPECT_EQ(spilled_only.lowest(), 64U);
}

TEST(NodeMask, ResetRemovesOneMemberAndLowestFollows) {
  NodeMask m;
  for (std::uint32_t n : {0U, 63U, 64U, 127U}) m.set(n);
  m.reset(0);
  EXPECT_EQ(m.lowest(), 63U);
  m.reset(63);
  EXPECT_EQ(m.lowest(), 64U);
  m.reset(64);
  EXPECT_EQ(m.lowest(), 127U);
  EXPECT_TRUE(m.is_sole(127));
  m.reset(127);
  EXPECT_FALSE(m.any());
  EXPECT_EQ(m.count(), 0);
  EXPECT_TRUE(members(m).empty());
  EXPECT_EQ(m, NodeMask{});  // zeroed spill words compare equal to none

  m.reset(500);  // resetting a node beyond the spill is a no-op
  m.reset(5);
  EXPECT_FALSE(m.any());
}

TEST(NodeMask, ClearEmptiesASpilledMask) {
  NodeMask m;
  for (std::uint32_t n : {0U, 63U, 64U, 127U}) m.set(n);
  m.clear();
  EXPECT_FALSE(m.any());
  EXPECT_EQ(m.count(), 0);
  for (std::uint32_t n : {0U, 63U, 64U, 127U}) EXPECT_FALSE(m.test(n)) << n;
  EXPECT_TRUE(members(m).empty());
  EXPECT_EQ(m, NodeMask{});

  // A cleared mask is fully reusable, spill included.
  m.set(127);
  m.set(1);
  EXPECT_EQ(members(m), (std::vector<std::uint32_t>{1, 127}));
  EXPECT_EQ(m.count(), 2);
}

}  // namespace
}  // namespace cico::kern

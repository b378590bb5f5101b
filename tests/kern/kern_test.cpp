// cico::kern equivalence suite.
//
// The kernel contract is "every dispatch level computes bit-identical
// results".  This suite enforces it two ways:
//   * raw-kernel equivalence -- every Ops entry point, each available
//     level against the scalar reference, over randomized word arrays
//     (including n=0 and non-multiple-of-vector-width tails);
//   * container equivalence -- BlockSet driven through randomized set
//     algebra against a std::set oracle, re-run under every available
//     level via the set_level test hook.
// Plus the word-boundary / empty / full edge cases the dense layout is
// most likely to get wrong, and the NodeMask units.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "cico/kern/bitset.hpp"
#include "cico/kern/kernels.hpp"
#include "cico/kern/nodemask.hpp"

namespace cico::kern {
namespace {

std::vector<Level> available_levels() {
  std::vector<Level> ls;
  for (Level l : {Level::Scalar, Level::AVX2, Level::NEON}) {
    if (level_available(l)) ls.push_back(l);
  }
  return ls;
}

/// RAII: force a dispatch level for one test body, restore on exit.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level l) : prev_(set_level(l)) {}
  ~ScopedLevel() { set_level(prev_); }

 private:
  Level prev_;
};

std::vector<std::uint64_t> random_words(std::mt19937_64& rng, std::size_t n,
                                        bool sparse) {
  std::vector<std::uint64_t> w(n);
  for (auto& x : w) {
    x = rng();
    if (sparse) x &= rng();  // bias toward zero words so find_nonzero walks
  }
  return w;
}

// ---------------------------------------------------------------------------
// Raw kernels: each available level against the scalar reference.
// ---------------------------------------------------------------------------

TEST(Kernels, AllLevelsMatchScalarOnRandomArrays) {
  std::mt19937_64 rng(0xC1C0);
  const Ops& ref = scalar_ops();
  for (Level l : available_levels()) {
    SCOPED_TRACE(level_name(l));
    ScopedLevel scope(l);
    const Ops& o = ops();
    ASSERT_EQ(o.level, l);
    // Sizes straddle the AVX2 (4-word) and NEON (2-word) strides.
    for (std::size_t n : {0U, 1U, 2U, 3U, 4U, 5U, 7U, 8U, 9U, 15U, 16U, 17U,
                          31U, 64U, 100U}) {
      for (int trial = 0; trial < 8; ++trial) {
        const auto a = random_words(rng, n, trial % 2 == 0);
        const auto b = random_words(rng, n, trial % 2 == 1);

        auto d1 = a, d2 = a;
        ref.bor(d1.data(), b.data(), n);
        o.bor(d2.data(), b.data(), n);
        EXPECT_EQ(d1, d2) << "bor n=" << n;

        d1 = a; d2 = a;
        ref.band(d1.data(), b.data(), n);
        o.band(d2.data(), b.data(), n);
        EXPECT_EQ(d1, d2) << "band n=" << n;

        d1 = a; d2 = a;
        ref.bandnot(d1.data(), b.data(), n);
        o.bandnot(d2.data(), b.data(), n);
        EXPECT_EQ(d1, d2) << "bandnot n=" << n;

        EXPECT_EQ(ref.popcount(a.data(), n), o.popcount(a.data(), n))
            << "popcount n=" << n;
        EXPECT_EQ(ref.equal(a.data(), b.data(), n),
                  o.equal(a.data(), b.data(), n))
            << "equal n=" << n;
        EXPECT_TRUE(o.equal(a.data(), a.data(), n)) << "self-equal n=" << n;
        EXPECT_EQ(ref.find_nonzero(a.data(), n), o.find_nonzero(a.data(), n))
            << "find_nonzero n=" << n;

        if (n > 0) {
          // Key present (some random position) and key absent.
          const std::uint64_t present = a[rng() % n];
          EXPECT_EQ(ref.find_u64(a.data(), n, present),
                    o.find_u64(a.data(), n, present))
              << "find_u64 present n=" << n;
        }
        EXPECT_EQ(ref.find_u64(a.data(), n, 0xDEAD'BEEF'F00D'CAFEULL),
                  o.find_u64(a.data(), n, 0xDEAD'BEEF'F00D'CAFEULL))
            << "find_u64 absent n=" << n;
      }
    }
  }
}

TEST(Kernels, EqualDetectsSingleBitDifferenceAtEveryPosition) {
  for (Level l : available_levels()) {
    SCOPED_TRACE(level_name(l));
    ScopedLevel scope(l);
    const Ops& o = ops();
    std::vector<std::uint64_t> a(9, 0x5555'5555'5555'5555ULL);
    for (std::size_t i = 0; i < a.size(); ++i) {
      auto b = a;
      b[i] ^= 1ULL << (i * 7 % 64);
      EXPECT_FALSE(o.equal(a.data(), b.data(), a.size())) << "word " << i;
    }
  }
}

TEST(Kernels, FindNonzeroAllZeroReturnsN) {
  for (Level l : available_levels()) {
    ScopedLevel scope(l);
    const std::vector<std::uint64_t> z(13, 0);
    EXPECT_EQ(ops().find_nonzero(z.data(), z.size()), z.size());
    // First nonzero at every position, including vector-tail positions.
    for (std::size_t i = 0; i < z.size(); ++i) {
      auto a = z;
      a[i] = 1;
      EXPECT_EQ(ops().find_nonzero(a.data(), a.size()), i)
          << level_name(l) << " word " << i;
    }
  }
}

TEST(Kernels, FindU64ReturnsFirstMatch) {
  for (Level l : available_levels()) {
    ScopedLevel scope(l);
    std::vector<std::uint64_t> a = {7, 3, 9, 3, 1, 3};
    EXPECT_EQ(ops().find_u64(a.data(), a.size(), 3), 1U) << level_name(l);
    EXPECT_EQ(ops().find_u64(a.data(), a.size(), 7), 0U);
    EXPECT_EQ(ops().find_u64(a.data(), a.size(), 42), a.size());
    EXPECT_EQ(ops().find_u64(a.data(), 0, 7), 0U);  // empty row
  }
}

TEST(Kernels, SetLevelRejectsUnavailableAndRestores) {
  const Level before = active_level();
  bool all = true;
  for (Level l : {Level::Scalar, Level::AVX2, Level::NEON}) {
    all = all && level_available(l);
  }
  if (!all) {
    // At least one level is absent on every real host (AVX2 xor NEON).
    for (Level l : {Level::AVX2, Level::NEON}) {
      if (!level_available(l)) {
        EXPECT_THROW(set_level(l), std::invalid_argument);
      }
    }
  }
  EXPECT_EQ(active_level(), before);
  EXPECT_TRUE(level_available(Level::Scalar));
}

// ---------------------------------------------------------------------------
// BlockSet vs std::set oracle, per level.
// ---------------------------------------------------------------------------

std::set<std::uint64_t> to_std(const BlockSet& s) {
  return {s.begin(), s.end()};
}

TEST(BlockSet, RandomizedAlgebraMatchesStdSetUnderEveryLevel) {
  for (Level l : available_levels()) {
    SCOPED_TRACE(level_name(l));
    ScopedLevel scope(l);
    std::mt19937_64 rng(0xB10C + static_cast<unsigned>(l));
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
  for (Level l : available_levels()) {
    SCOPED_TRACE(level_name(l));
    ScopedLevel scope(l);
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

}  // namespace
}  // namespace cico::kern

// Parameterized protocol sweeps: the Dir1SW state machine must keep its
// invariants and its cost ordering across node counts, sharer counts and
// cost models.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cico/proto/dir1sw.hpp"

namespace cico::proto {
namespace {

using mem::LineState;

class MapCaches : public CacheControl {
 public:
  [[nodiscard]] LineState peek(NodeId n, Block b) const override {
    auto it = lines_.find({n, b});
    return it == lines_.end() ? LineState::Invalid : it->second;
  }
  void invalidate(NodeId n, Block b) override {
    lines_.erase({n, b});
    invalidated.push_back(n);
  }
  void downgrade(NodeId n, Block b) override {
    auto it = lines_.find({n, b});
    if (it != lines_.end()) it->second = LineState::Shared;
  }
  void push_shared(NodeId n, Block b) override {
    lines_[{n, b}] = LineState::Shared;
    pushed.push_back(n);
  }
  void set(NodeId n, Block b, LineState s) {
    if (s == LineState::Invalid) lines_.erase({n, b});
    else lines_[{n, b}] = s;
  }

  /// Nodes in the order the handler invalidated / pushed to them.
  std::vector<NodeId> invalidated;
  std::vector<NodeId> pushed;

 private:
  std::map<std::pair<NodeId, Block>, LineState> lines_;
};

class SharerSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SharerSweep, InvalidationCountMatchesSharerCount) {
  const std::uint32_t sharers = GetParam();
  const std::uint32_t nodes = sharers + 2;
  CostModel cost;
  Stats stats(nodes);
  net::Network net(cost, stats);
  MapCaches caches;
  Dir1SW dir(nodes, cost, net, stats, caches);

  const Block b = 1;
  for (std::uint32_t s = 0; s < sharers; ++s) {
    dir.get_shared(s, b, 0);
    caches.set(s, b, LineState::Shared);
  }
  // A non-sharer writes: every sharer must be invalidated through the
  // software handler (one trap, `sharers` invalidations).
  const NodeId writer = sharers;
  auto r = dir.get_exclusive(writer, b, 100);
  caches.set(writer, b, LineState::Exclusive);
  if (sharers == 0) {
    EXPECT_FALSE(r.trapped);
  } else {
    EXPECT_TRUE(r.trapped);
    EXPECT_EQ(r.invalidations, sharers);
  }
  // Invalidations go out in ascending node order, across the 64-node word
  // boundary too: the order fixes every message time.
  std::vector<NodeId> ascending(sharers);
  for (std::uint32_t s = 0; s < sharers; ++s) ascending[s] = s;
  EXPECT_EQ(caches.invalidated, ascending);
  EXPECT_EQ(dir.check_invariants(), "");
  // Latency grows with the number of sharers (software serializes the
  // invalidation sends).
  if (sharers >= 2) {
    EXPECT_GE(r.done_at - 100,
              cost.dir_trap + sharers * cost.inval_per_sharer);
  }
}

INSTANTIATE_TEST_SUITE_P(Sharers, SharerSweep,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u, 16u, 31u, 63u,
                                           64u, 70u));

struct CostCase {
  Cycle hop, trap;
};

class CostSweep : public ::testing::TestWithParam<CostCase> {};

TEST_P(CostSweep, TrapAlwaysCostsMoreThanHardwareFill) {
  const CostCase cc = GetParam();
  CostModel cost;
  cost.net_hop = cc.hop;
  cost.dir_trap = cc.trap;
  Stats stats(4);
  net::Network net(cost, stats);
  MapCaches caches;
  Dir1SW dir(4, cost, net, stats, caches);

  auto hw = dir.get_exclusive(0, 1, 0);
  caches.set(0, 1, LineState::Exclusive);
  auto trap = dir.get_exclusive(2, 1, hw.done_at);
  caches.set(2, 1, LineState::Exclusive);
  caches.set(0, 1, LineState::Invalid);
  EXPECT_GT(trap.done_at - hw.done_at, hw.done_at - 0);
  EXPECT_EQ(dir.check_invariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Costs, CostSweep,
                         ::testing::Values(CostCase{10, 100},
                                           CostCase{40, 240},
                                           CostCase{100, 1000},
                                           CostCase{1, 50}));

class NodeCountSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(NodeCountSweep, HomeDistributionCoversAllNodes) {
  const std::uint32_t nodes = GetParam();
  CostModel cost;
  Stats stats(nodes);
  net::Network net(cost, stats);
  MapCaches caches;
  Dir1SW dir(nodes, cost, net, stats, caches);
  std::vector<bool> seen(nodes, false);
  for (Block b = 0; b < nodes * 3; ++b) {
    const NodeId h = dir.home_of(b);
    ASSERT_LT(h, nodes);
    seen[h] = true;
  }
  for (std::uint32_t n = 0; n < nodes; ++n) EXPECT_TRUE(seen[n]);
}

INSTANTIATE_TEST_SUITE_P(Nodes, NodeCountSweep,
                         ::testing::Values(1u, 2u, 8u, 32u, 64u));

TEST(Dir1SWCornerTest, ReadAfterOwnerCheckinIsHardware) {
  CostModel cost;
  Stats stats(4);
  net::Network net(cost, stats);
  MapCaches caches;
  Dir1SW dir(4, cost, net, stats, caches);
  dir.get_exclusive(0, 5, 0);
  caches.set(0, 5, LineState::Exclusive);
  dir.put(0, 5, true, 10, true);
  caches.set(0, 5, LineState::Invalid);
  auto r = dir.get_shared(1, 5, 20);
  EXPECT_FALSE(r.trapped);
  EXPECT_EQ(stats.total(Stat::Traps), 0u);
}

TEST(Dir1SWCornerTest, DowngradedOwnerCanHardwareUpgradeAfterReaderLeaves) {
  CostModel cost;
  Stats stats(4);
  net::Network net(cost, stats);
  MapCaches caches;
  Dir1SW dir(4, cost, net, stats, caches);
  dir.get_exclusive(0, 5, 0);
  caches.set(0, 5, LineState::Exclusive);
  auto r1 = dir.get_shared(1, 5, 10);  // trap: downgrade owner
  caches.set(1, 5, LineState::Shared);
  EXPECT_TRUE(r1.trapped);
  dir.put(1, 5, false, r1.done_at, true);  // reader checks in
  caches.set(1, 5, LineState::Invalid);
  // Node 0, now the sole Shared holder, upgrades in hardware.
  auto r2 = dir.get_exclusive(0, 5, r1.done_at + 100);
  caches.set(0, 5, LineState::Exclusive);
  EXPECT_FALSE(r2.trapped);
  EXPECT_EQ(dir.check_invariants(), "");
}

TEST(Dir1SWCornerTest, PostStorePushesPastSharersAcrossNode64InOrder) {
  // Readers 60..67 straddle the NodeMask's inline word; node 70's write
  // invalidates them (they become past sharers), and its post-store must
  // push them their copies back in ascending order.
  const std::uint32_t nodes = 72;
  CostModel cost;
  Stats stats(nodes);
  net::Network net(cost, stats);
  MapCaches caches;
  Dir1SW dir(nodes, cost, net, stats, caches);
  const Block b = 3;
  std::vector<NodeId> readers;
  for (NodeId n = 67; n >= 60; --n) {
    dir.get_shared(n, b, 0);
    caches.set(n, b, LineState::Shared);
    readers.insert(readers.begin(), n);
  }
  const NodeId writer = 70;
  const auto w = dir.get_exclusive(writer, b, 100);
  caches.set(writer, b, LineState::Exclusive);
  EXPECT_TRUE(w.trapped);
  EXPECT_EQ(caches.invalidated, readers);
  EXPECT_EQ(dir.check_invariants(), "");

  const auto ps = dir.post_store(writer, b, w.done_at);
  EXPECT_FALSE(ps.nacked);
  EXPECT_EQ(caches.pushed, readers);
  const DirEntry* e = dir.entry(b);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, DirState::Shared);
  EXPECT_EQ(e->owner, writer);
  EXPECT_EQ(e->count, readers.size() + 1);
  EXPECT_EQ(dir.check_invariants(), "");

  // Check-ins hand the hardware pointer to the lowest remaining sharer,
  // across node 64 too.
  dir.put(writer, b, /*dirty=*/false, ps.done_at, /*explicit_ci=*/true);
  caches.set(writer, b, LineState::Invalid);
  for (std::size_t i = 0; i + 1 < readers.size(); ++i) {
    dir.put(readers[i], b, /*dirty=*/false, ps.done_at, /*explicit_ci=*/true);
    caches.set(readers[i], b, LineState::Invalid);
    EXPECT_EQ(e->owner, readers[i + 1]);
    EXPECT_EQ(e->count, readers.size() - i - 1);
  }
  EXPECT_EQ(dir.check_invariants(), "");
}

}  // namespace
}  // namespace cico::proto

// Plan-application mechanics inside the engine: epoch-0 start directives,
// start-of-epoch prefetch runs and check-in runs skipping absent blocks.
#include <gtest/gtest.h>

#include "cico/sim/machine.hpp"

namespace cico::sim {
namespace {

SimConfig small(std::uint32_t nodes) {
  SimConfig c;
  c.nodes = nodes;
  c.cache.size_bytes = 4096;
  return c;
}

TEST(PlanApplyTest, EpochZeroStartCheckoutsHappenBeforeFirstAccess) {
  Machine m(small(1));
  const Addr a = m.heap().alloc(128, "A");  // 4 blocks
  const Block b0 = m.config().cache.block_of(a);
  DirectivePlan plan;
  plan.at(0, 0).at_start.push_back(
      {DirectiveKind::CheckOutX, BlockRun{b0, b0 + 3}});
  m.set_plan(&plan);
  m.run([&](Proc& p) {
    for (int i = 0; i < 4; ++i) p.st(a + 32 * i, 8, 1);  // all hits
  });
  EXPECT_EQ(m.stats().total(Stat::CheckOutX), 4u);
  EXPECT_EQ(m.stats().total(Stat::WriteMisses), 0u);
}

TEST(PlanApplyTest, EpochStartPrefetchRunsOverlapBarrierGap) {
  Machine m(small(2));
  const Addr a = m.heap().alloc(256, "A");
  const Block b0 = m.config().cache.block_of(a);
  DirectivePlan plan;
  plan.at(1, 1).at_start.push_back(
      {DirectiveKind::PrefetchS, BlockRun{b0, b0 + 7}});
  m.set_plan(&plan);
  m.run([&](Proc& p) {
    if (p.id() == 0) {
      for (int i = 0; i < 8; ++i) p.st(a + 32 * i, 8, 1);
      p.check_in(a, 256);
    }
    p.barrier();
    if (p.id() == 1) {
      p.compute(2000);  // time for the prefetches to land
      for (int i = 0; i < 8; ++i) (void)p.ld(a + 32 * i, 8, 2);
    }
  });
  EXPECT_EQ(m.stats().total(Stat::PrefetchIssued), 8u);
  EXPECT_EQ(m.stats().total(Stat::PrefetchUseful), 8u);
  EXPECT_EQ(m.stats().node(1, Stat::ReadMisses), 0u);
}

TEST(PlanApplyTest, EndCheckinSkipsAbsentBlocks) {
  Machine m(small(1));
  const Addr a = m.heap().alloc(256, "A");
  const Block b0 = m.config().cache.block_of(a);
  DirectivePlan plan;
  // Plan says check in 8 blocks at epoch end but the program touched 2.
  plan.at(0, 0).at_end.push_back({DirectiveKind::CheckIn, BlockRun{b0, b0 + 7}});
  m.set_plan(&plan);
  m.run([&](Proc& p) {
    p.st(a, 8, 1);
    p.st(a + 32, 8, 1);
    p.barrier();
  });
  EXPECT_EQ(m.stats().total(Stat::CheckIns), 2u);  // only resident lines
  EXPECT_EQ(m.directory().check_invariants(), "");
}

TEST(PlanApplyTest, PlanForOtherEpochsDoesNothing) {
  Machine m(small(1));
  const Addr a = m.heap().alloc(32, "A");
  DirectivePlan plan;
  plan.at(0, 5).fetch_exclusive.insert(m.config().cache.block_of(a));
  m.set_plan(&plan);
  m.run([&](Proc& p) {
    (void)p.ld(a, 8, 1);
    p.st(a, 8, 2);
  });
  // Epoch 5 never happens; the read stays a GetS and the store faults.
  EXPECT_EQ(m.stats().total(Stat::WriteFaults), 1u);
  EXPECT_EQ(m.stats().total(Stat::CheckOutX), 0u);
}

}  // namespace
}  // namespace cico::sim

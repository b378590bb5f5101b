#include "cico/lang/cfg.hpp"

#include <gtest/gtest.h>

#include "cico/lang/parser.hpp"

namespace cico::lang {
namespace {

TEST(CfgTest, LoopNesting) {
  Program p = parse(R"(
    shared real A[8];
    parallel
      for i = 0 to 7 do
        for j = 0 to 7 do
          A[0] = i + j;
        od
      od
    end
  )");
  Cfg cfg(p);
  ASSERT_EQ(cfg.loops().size(), 2u);
  const AstId outer = cfg.loops()[0];
  const AstId inner = cfg.loops()[1];
  EXPECT_EQ(cfg.loop_of(inner), outer);
  EXPECT_EQ(cfg.loop_of(outer), 0u);
  const AstId assign = p.body[0]->body[0]->body[0]->id;
  EXPECT_EQ(cfg.loop_of(assign), inner);
}

TEST(CfgTest, BarriersRecordedInOrder) {
  Program p = parse(R"(
    parallel
      compute 1;
      barrier;
      compute 2;
      barrier;
    end
  )");
  Cfg cfg(p);
  ASSERT_EQ(cfg.barriers().size(), 2u);
  EXPECT_EQ(cfg.barriers()[0], p.body[1]->id);
  EXPECT_EQ(cfg.barriers()[1], p.body[3]->id);
}

TEST(CfgTest, LoopHasBackEdge) {
  Program p = parse("parallel for i = 0 to 3 do compute 1; od end");
  Cfg cfg(p);
  // Find the header block (contains the For stmt) and verify some block's
  // successor points back at it.
  const AstId loop = cfg.loops()[0];
  std::uint32_t header = 0;
  for (const auto& b : cfg.blocks()) {
    for (AstId s : b.stmts) {
      if (s == loop) header = b.id;
    }
  }
  bool back_edge = false;
  for (const auto& b : cfg.blocks()) {
    if (b.id == header) continue;
    for (std::uint32_t s : b.succ) {
      if (s == header) back_edge = true;
    }
  }
  EXPECT_TRUE(back_edge);
}

TEST(CfgTest, IfCreatesBranch) {
  Program p = parse(R"(
    parallel
      if pid == 0 then
        compute 1;
      else
        compute 2;
      fi
    end
  )");
  Cfg cfg(p);
  // The condition block must have two successors.
  const AstId if_id = p.body[0]->id;
  bool found = false;
  for (const auto& b : cfg.blocks()) {
    for (AstId s : b.stmts) {
      if (s == if_id) {
        EXPECT_EQ(b.succ.size(), 2u);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(CfgTest, IfParentTracked) {
  Program p = parse(R"(
    parallel
      if pid == 0 then
        compute 1;
      fi
    end
  )");
  Cfg cfg(p);
  const AstId if_id = p.body[0]->id;
  const AstId inner = p.body[0]->body[0]->id;
  EXPECT_EQ(cfg.parent_of(inner), if_id);
  EXPECT_EQ(cfg.loop_of(inner), 0u);  // an If is not a loop
}

}  // namespace
}  // namespace cico::lang

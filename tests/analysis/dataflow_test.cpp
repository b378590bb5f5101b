// Unit tests for the cico::analysis dataflow framework: CfgInfo
// orderings, shared-access extraction, and the worklist solver's
// fixpoint around a loop.
#include "cico/analysis/dataflow.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "cico/lang/cfg.hpp"
#include "cico/lang/parser.hpp"

namespace cico::analysis {
namespace {

using lang::AstId;
using lang::Cfg;
using lang::Program;

/// Block containing statement `id` (asserts it exists).
std::uint32_t block_of(const Cfg& cfg, AstId id) {
  for (const auto& b : cfg.blocks()) {
    if (std::find(b.stmts.begin(), b.stmts.end(), id) != b.stmts.end()) {
      return b.id;
    }
  }
  ADD_FAILURE() << "no block holds stmt " << id;
  return 0;
}

TEST(CfgInfoTest, RpoStartsAtEntryAndCoversReachableBlocks) {
  Program p = lang::parse(R"(
    shared real A[8];
    parallel
      A[0] = 1;
      barrier;
      A[1] = 2;
    end
  )");
  Cfg cfg(p);
  CfgInfo info(cfg);
  ASSERT_FALSE(info.rpo.empty());
  EXPECT_EQ(info.rpo.front(), cfg.entry());
  for (const auto& b : cfg.blocks()) EXPECT_TRUE(info.reachable(b.id));
  // rpo_pos inverts rpo.
  for (std::uint32_t i = 0; i < info.rpo.size(); ++i) {
    EXPECT_EQ(info.rpo_pos[info.rpo[i]], i);
  }
  // Straight-line program: exactly one exit, the Cfg's exit.
  ASSERT_EQ(info.exits.size(), 1u);
  EXPECT_EQ(info.exits[0], cfg.exit());
  EXPECT_TRUE(cfg.blocks()[cfg.exit()].succ.empty());
}

TEST(CfgInfoTest, PredEdgesMirrorSuccEdges) {
  Program p = lang::parse(R"(
    parallel
      for i = 0 to 3 do
        if pid == 0 then
          compute 1;
        else
          compute 2;
        fi
      od
    end
  )");
  Cfg cfg(p);
  for (const auto& b : cfg.blocks()) {
    for (std::uint32_t s : b.succ) {
      const auto& preds = cfg.blocks()[s].pred;
      EXPECT_NE(std::find(preds.begin(), preds.end(), b.id), preds.end())
          << "edge " << b.id << "->" << s << " missing from pred list";
    }
    for (std::uint32_t pr : b.pred) {
      const auto& succs = cfg.blocks()[pr].succ;
      EXPECT_NE(std::find(succs.begin(), succs.end(), b.id), succs.end());
    }
  }
}

TEST(SharedAccessTest, ReadsBeforeWriteAndSubscriptReads) {
  Program p = lang::parse(R"(
    shared real A[8];
    shared real IX[8];
    parallel
      A[IX[0]] = A[1] + 2;
    end
  )");
  SharedArrays arrays(p);
  ASSERT_EQ(arrays.size(), 2u);
  EXPECT_EQ(arrays.index_of("A"), 0);
  EXPECT_EQ(arrays.index_of("IX"), 1);
  EXPECT_EQ(arrays.index_of("nope"), -1);
  const auto accs = shared_accesses(*p.body[0], arrays);
  ASSERT_EQ(accs.size(), 3u);
  EXPECT_EQ(accs[0].array, 1u);  // IX subscript read
  EXPECT_FALSE(accs[0].write);
  EXPECT_EQ(accs[1].array, 0u);  // A[1] rhs read
  EXPECT_FALSE(accs[1].write);
  EXPECT_EQ(accs[2].array, 0u);  // A write, last
  EXPECT_TRUE(accs[2].write);
}

// Finite may-bitmask domain: which shared arrays some path has accessed.
struct SeenDomain {
  using State = int;  // -1 bottom, else bitmask of accessed arrays

  const Cfg* cfg;
  const StmtIndex* stmts;
  const SharedArrays* arrays;

  [[nodiscard]] State init() const { return -1; }
  [[nodiscard]] State boundary() const { return 0; }
  bool join(State& into, const State& from) const {
    if (from < 0) return false;
    const State merged = into < 0 ? from : (into | from);
    if (merged != into) {
      into = merged;
      return true;
    }
    return false;
  }
  void transfer(std::uint32_t block, State& s) const {
    if (s < 0) return;
    for (AstId id : cfg->blocks()[block].stmts) {
      if (const lang::Stmt* st = stmts->stmt(id)) {
        for (const SharedAccess& a : shared_accesses(*st, *arrays)) {
          s |= 1 << a.array;
        }
      }
    }
  }
};

TEST(SolverTest, MayFactsFlowAroundTheLoopBackEdge) {
  Program p = lang::parse(R"(
    shared real A[8];
    shared real B[8];
    parallel
      for i = 0 to 3 do
        A[0] = i;
        barrier;
      od
      B[1] = 9;
    end
  )");
  Cfg cfg(p);
  CfgInfo info(cfg);
  const StmtIndex stmts(p);
  const SharedArrays arrays(p);
  const SeenDomain dom{&cfg, &stmts, &arrays};
  const auto sol = solve(info, dom, Direction::Forward);
  EXPECT_EQ(sol.in[cfg.entry()], 0);
  // A's write in the body reaches the loop header over the back edge.
  EXPECT_EQ(sol.in[block_of(cfg, p.body[0]->id)], 1);
  EXPECT_EQ(sol.out[cfg.exit()], 3);
}

}  // namespace
}  // namespace cico::analysis

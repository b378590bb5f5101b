#include "cico/lang/interp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "cico/lang/parser.hpp"
#include "cico/srcann/annotator.hpp"

namespace cico::lang {
namespace {

sim::SimConfig cfg(std::uint32_t nodes) {
  sim::SimConfig c;
  c.nodes = nodes;
  c.cache.size_bytes = 8192;
  return c;
}

/// Parses + runs a program; returns the LoadedProgram for inspection.
struct Ran {
  Program prog;
  std::unique_ptr<sim::Machine> m;
  std::unique_ptr<LoadedProgram> lp;
};

Ran run(const std::string& src, std::uint32_t nodes,
        const sim::DirectivePlan* plan = nullptr) {
  Ran r;
  r.prog = parse(src);
  r.m = std::make_unique<sim::Machine>(cfg(nodes));
  if (plan) r.m->set_plan(plan);
  r.lp = std::make_unique<LoadedProgram>(r.prog, *r.m);
  r.m->run([&](sim::Proc& p) { r.lp->run_node(p); });
  return r;
}

TEST(InterpTest, FillsArrayDeterministically) {
  auto r = run(R"(
    const N = 16;
    shared real A[N];
    parallel
      if pid == 0 then
        for i = 0 to N - 1 do
          A[i] = i * i;
        od
      fi
    end
  )", 2);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(r.lp->value("A", i), static_cast<double>(i * i));
  }
}

TEST(InterpTest, PidPartitionedWrites) {
  auto r = run(R"(
    const N = 16;
    shared real A[N];
    parallel
      private per = N / nprocs;
      private lo = pid * per;
      for i = lo to lo + per - 1 do
        A[i] = pid + 1;
      od
    end
  )", 4);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(r.lp->value("A", i), static_cast<double>(i / 4 + 1));
  }
}

TEST(InterpTest, TwoDArraysAndExpressions) {
  auto r = run(R"(
    const N = 4;
    shared real C[N, N];
    parallel
      if pid == 0 then
        for i = 0 to N - 1 do
          for j = 0 to N - 1 do
            C[i, j] = min(i, j) * 10 + max(i, j) + (i == j) * 100;
          od
        od
      fi
    end
  )", 2);
  EXPECT_DOUBLE_EQ(r.lp->value("C", 2, 2), 22.0 + 100.0);
  EXPECT_DOUBLE_EQ(r.lp->value("C", 1, 3), 13.0);
  EXPECT_DOUBLE_EQ(r.lp->value("C", 3, 1), 13.0);
}

TEST(InterpTest, BarriersMakeProducerConsumerDeterministic) {
  auto r = run(R"(
    const N = 8;
    shared real A[N];
    shared real B[N];
    parallel
      if pid == 0 then
        for i = 0 to N - 1 do
          A[i] = i + 1;
        od
      fi
      barrier;
      if pid == 1 then
        for i = 0 to N - 1 do
          B[i] = A[i] * 2;
        od
      fi
    end
  )", 2);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(r.lp->value("B", i), 2.0 * (static_cast<double>(i) + 1));
  }
  EXPECT_EQ(r.m->epochs_completed(), 1u);
}

TEST(InterpTest, DirectivesExecute) {
  auto r = run(R"(
    const N = 8;
    shared real A[N];
    parallel
      if pid == 0 then
        check_out_X A[0:7];
        for i = 0 to N - 1 do
          A[i] = 1;
        od
        check_in A[0:7];
        prefetch_S A[0:7];
      fi
    end
  )", 2);
  EXPECT_EQ(r.m->stats().total(Stat::CheckOutX), 2u);  // 64 B = 2 blocks
  EXPECT_EQ(r.m->stats().total(Stat::CheckIns), 2u);
  EXPECT_EQ(r.m->stats().total(Stat::PrefetchIssued), 2u);
  EXPECT_EQ(r.m->stats().total(Stat::WriteMisses), 0u);  // checked out first
}

TEST(InterpTest, LocksSerializeIncrements) {
  auto r = run(R"(
    shared real A[1];
    parallel
      for i = 1 to 5 do
        lock A[0];
        A[0] = A[0] + 1;
        unlock A[0];
      od
    end
  )", 4);
  EXPECT_DOUBLE_EQ(r.lp->value("A", 0), 20.0);
}

TEST(InterpTest, ShortCircuitSkipsMemoryTraffic) {
  auto r = run(R"(
    shared real A[4];
    parallel
      if pid == 0 then
        private x = 0 && A[0];
        private y = 1 || A[1];
        A[2] = x + y;
      fi
    end
  )", 1);
  // Neither A[0] nor A[1] should have been loaded.
  EXPECT_EQ(r.m->stats().total(Stat::SharedLoads), 0u);
  EXPECT_DOUBLE_EQ(r.lp->value("A", 2), 1.0);
}

TEST(InterpTest, RuntimeErrors) {
  EXPECT_THROW(run("shared real A[4]; parallel A[9] = 1; end", 1),
               InterpError);
  EXPECT_THROW(run("parallel private x = nope; end", 1), InterpError);
  EXPECT_THROW(run("parallel B[0] = 1; end", 1), InterpError);
  EXPECT_THROW(run("parallel for i = 0 to 3 step 0 do od end", 1),
               InterpError);
}

TEST(InterpTest, PcMappingRoundTrips) {
  Program prog = parse("shared real A[4]; parallel A[0] = 1; end");
  sim::Machine m(cfg(1));
  LoadedProgram lp(prog, m);
  const AstId assign = prog.body[0]->id;
  const PcId pc = lp.pc_for(assign);
  EXPECT_NE(pc, kNoPc);
  EXPECT_EQ(lp.ast_for(pc), assign);
}

TEST(InterpTest, TraceRecordsMiniParAccesses) {
  Program prog = parse(R"(
    shared real A[8];
    parallel
      if pid == 0 then
        A[0] = 1;
      fi
      barrier;
      if pid == 1 then
        private x = A[0];
        A[1] = x;
      fi
    end
  )");
  sim::SimConfig c = cfg(2);
  c.trace_mode = true;
  sim::Machine m(c);
  trace::TraceWriter w;
  m.set_trace_writer(&w);
  LoadedProgram lp(prog, m);
  w.set_labels(m.heap().trace_labels());
  m.run([&](sim::Proc& p) { lp.run_node(p); });
  trace::Trace t = w.take();
  ASSERT_GE(t.misses.size(), 2u);
  // Every miss pc maps back to an AST node.
  for (const auto& ms : t.misses) {
    EXPECT_NE(lp.ast_for(ms.pc), 0u);
  }
}

// --- Load-time name resolution ----------------------------------------------
// Names are bound to frame slots and arrays once per LoadedProgram; these
// pin the run-time semantics that binding must keep.

/// The InterpError message a program raises ("" when it runs clean).
std::string error_of(const std::string& src, std::uint32_t nodes = 1) {
  try {
    run(src, nodes);
  } catch (const InterpError& e) {
    return e.what();
  }
  return "";
}

TEST(InterpTest, PrivateShadowsConstOnlyAfterFirstWrite) {
  auto r = run(R"(
    const K = 5;
    shared real A[4];
    shared real B[2];
    parallel
      if pid == 0 then
        for i = 0 to 2 do
          A[i] = K;
          K = 7 + i;
        od
        A[3] = K;
      fi
      B[pid] = K;
    end
  )", 2);
  // The same read node sees the const, then the private it shadows.
  EXPECT_DOUBLE_EQ(r.lp->value("A", 0), 5.0);
  EXPECT_DOUBLE_EQ(r.lp->value("A", 1), 7.0);
  EXPECT_DOUBLE_EQ(r.lp->value("A", 2), 8.0);
  EXPECT_DOUBLE_EQ(r.lp->value("A", 3), 9.0);
  // Frames are per node: node 1 never wrote K.
  EXPECT_DOUBLE_EQ(r.lp->value("B", 0), 9.0);
  EXPECT_DOUBLE_EQ(r.lp->value("B", 1), 5.0);
  EXPECT_DOUBLE_EQ(r.lp->const_value("K"), 5.0);
}

TEST(InterpTest, LoopVariableKeepsLastValueAfterOd) {
  auto r = run(R"(
    shared real A[3];
    parallel
      for i = 0 to 3 do od
      A[0] = i;
      for j = 0 to 5 step 2 do od
      A[1] = j;
      for k = 3 to 0 step 0 - 1 do od
      A[2] = k;
    end
  )", 1);
  EXPECT_DOUBLE_EQ(r.lp->value("A", 0), 3.0);
  EXPECT_DOUBLE_EQ(r.lp->value("A", 1), 4.0);  // the last value taken, not 6
  EXPECT_DOUBLE_EQ(r.lp->value("A", 2), 0.0);
  // A loop that never runs never binds its variable.
  EXPECT_EQ(error_of("shared real A[1];\nparallel\n  for m = 5 to 0 do od\n"
                     "  A[0] = m;\nend"),
            "unknown variable 'm' (line 4)");
}

TEST(InterpTest, UnknownNamesInUntakenBranchesDoNotThrow) {
  auto r = run(R"(
    const K = 1;
    shared real A[2];
    parallel
      if pid == 99 then
        A[0] = nope + Z[0];
        W[0] = 1;
        check_in Q[0:1];
        lock L[0];
        unlock L[0];
      fi
      A[pid] = K;
    end
  )", 2);
  EXPECT_DOUBLE_EQ(r.lp->value("A", 0), 1.0);
  EXPECT_DOUBLE_EQ(r.lp->value("A", 1), 1.0);
}

TEST(InterpTest, UnknownNameMessagesCarryTheLine) {
  EXPECT_EQ(error_of("shared real A[4];\nparallel\n  A[0] = nope;\nend"),
            "unknown variable 'nope' (line 3)");
  EXPECT_EQ(error_of("parallel\n\n  private x = Z[0];\nend"),
            "unknown shared array 'Z' (line 3)");
  EXPECT_EQ(error_of("parallel\n  W[1] = 2;\nend"),
            "unknown shared array 'W' (line 2)");
  EXPECT_EQ(error_of("parallel\n  check_out_X Q[0:1];\nend"),
            "unknown shared array 'Q' (line 2)");
  EXPECT_EQ(error_of("parallel\n\n  lock L[0];\nend"),
            "unknown shared array 'L' (line 3)");
  // The error fires when the node reaches the statement, not at load.
  EXPECT_EQ(error_of("shared real A[2];\nparallel\n  A[pid] = 1;\n"
                     "  if pid == 1 then\n    A[0] = nope;\n  fi\nend",
                     2),
            "unknown variable 'nope' (line 5)");
}

// --- Subscripts ----------------------------------------------------------
// A whole-number subscript is used as is; any other value rounds half away
// from zero and must land inside the extent.

TEST(InterpTest, NonIntegralSubscriptsRoundHalfAwayFromZero) {
  auto r = run(R"(
    shared real A[4];
    parallel
      A[1.5] = 2;
      A[2.5] = 3;
      A[-0.4] = 7;
      private x = A[1.5];
      A[1] = x + 10;
    end
  )", 1);
  EXPECT_DOUBLE_EQ(r.lp->value("A", 0), 7.0);   // -0.4 -> 0
  EXPECT_DOUBLE_EQ(r.lp->value("A", 1), 12.0);  // read back through 1.5 -> 2
  EXPECT_DOUBLE_EQ(r.lp->value("A", 2), 2.0);   // 1.5 -> 2
  EXPECT_DOUBLE_EQ(r.lp->value("A", 3), 3.0);   // 2.5 -> 3
}

TEST(InterpTest, SubscriptsThatRoundOutOfRangeFail) {
  for (const char* sub : {"-0.6", "0/0", "1/0", "-1/0", "3.5", "4"}) {
    SCOPED_TRACE(sub);
    const std::string head = "shared real A[4];\nparallel\n  ";
    EXPECT_EQ(error_of(head + "A[" + sub + "] = 1;\nend"),
              "array subscript out of range (line 3)");
    EXPECT_EQ(error_of(head + "private x = A[" + sub + "];\nend"),
              "array subscript out of range (line 3)");
  }
}

TEST(InterpTest, FirstSubscriptRangeErrorBeatsSecondSubscriptName) {
  // Each subscript is checked as soon as it is evaluated, so an
  // out-of-range first subscript fails before the second one's unknown
  // variable is read -- in loads, stores, locks and directives alike.
  const std::string head = "shared real B[2, 2];\nparallel\n  ";
  for (const char* stmt : {"private x = B[5, nope];", "B[5, nope] = 1;",
                           "lock B[5, nope];", "check_in B[5, nope];"}) {
    SCOPED_TRACE(stmt);
    EXPECT_EQ(error_of(head + stmt + "\nend"),
              "array subscript out of range (line 3)");
  }
  // In range, the second subscript's name is what fails.
  EXPECT_EQ(error_of(head + "B[1, nope] = 1;\nend"),
            "unknown variable 'nope' (line 3)");
}

/// Visits every expression reachable from a statement list, directive
/// ranges included.
void for_each_expr(const std::vector<StmtPtr>& stmts,
                   const std::function<void(const Expr&)>& fn) {
  std::function<void(const Expr&)> walk = [&](const Expr& e) {
    fn(e);
    for (const auto& a : e.args) walk(*a);
  };
  for (const auto& s : stmts) {
    for (const auto* e : {s->rhs.get(), s->lo.get(), s->hi.get(),
                          s->step.get(), s->cond.get()}) {
      if (e != nullptr) walk(*e);
    }
    for (const auto& e : s->subs) walk(*e);
    if (s->ref) {
      for (const auto& r : s->ref->ranges) {
        walk(*r.lo);
        if (r.hi) walk(*r.hi);
      }
    }
    for_each_expr(s->body, fn);
    for_each_expr(s->else_body, fn);
  }
}

constexpr const char* kReduce = R"(
  const N = 16;
  shared real A[N];
  shared real S[1];
  parallel
    private per = N / nprocs;
    private lo = pid * per;
    for i = lo to lo + per - 1 do
      A[i] = i * 2 + pid;
    od
    barrier;
    if pid == 0 then
      private s = 0;
      for i = 0 to N - 1 do
        s = s + A[i];
      od
      S[0] = s;
    fi
  end
)";

TEST(InterpTest, AnnotatedProgramWithClonedIdsMatchesSource) {
  const Ran src = run(kReduce, 4);
  Program annotated = srcann::annotate_naive(src.prog);
  // The wrappers clone each lvalue subscript and keep its id, so ids repeat.
  std::map<AstId, int> seen;
  for_each_expr(annotated.body, [&](const Expr& e) { ++seen[e.id]; });
  EXPECT_TRUE(std::any_of(seen.begin(), seen.end(),
                          [](const auto& kv) { return kv.second > 1; }));
  sim::Machine m(cfg(4));
  LoadedProgram lp(annotated, m);
  m.run([&](sim::Proc& p) { lp.run_node(p); });
  EXPECT_GT(m.stats().total(Stat::CheckIns), 0u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(lp.value("A", i), src.lp->value("A", i)) << i;
  }
  EXPECT_DOUBLE_EQ(lp.value("S", 0), src.lp->value("S", 0));
}

TEST(InterpTest, NodesSharingAnIdMustShareAName) {
  Program prog = parse(kReduce);
  Program bad = srcann::annotate_naive(prog);
  // Rename the clone of `A[i]`'s subscript in the check_out_X wrapper
  // that precedes it, keeping the clone's id.
  Stmt& loop = *bad.body[2];
  ASSERT_EQ(loop.kind, StmtKind::For);
  ASSERT_EQ(loop.body[0]->kind, StmtKind::Directive);
  Expr& clone = *loop.body[0]->ref->ranges[0].lo;
  ASSERT_EQ(clone.id, loop.body[1]->subs[0]->id);
  clone.name = "j";
  sim::Machine m(cfg(4));
  try {
    LoadedProgram lp(bad, m);
    FAIL() << "load accepted an id naming both 'i' and 'j'";
  } catch (const InterpError& e) {
    EXPECT_NE(std::string(e.what()).find("names both"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace cico::lang

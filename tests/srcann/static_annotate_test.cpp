// Trace-free annotation (`cachier annotate --static`) end to end:
// annotate_static must emit lint-clean text in both modes, preserve program
// semantics through an unparse/reparse round trip, and beat the
// unannotated baseline in performance mode.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cico/analysis/typestate.hpp"
#include "cico/lang/interp.hpp"
#include "cico/lang/parser.hpp"
#include "cico/lang/unparse.hpp"
#include "cico/srcann/annotator.hpp"

namespace cico::srcann {
namespace {

namespace lang = cico::lang;

constexpr const char* kJacobi = R"(
const N = 16;
const P = 2;
const T = 4;
shared real U[N, N];
shared real V[N, N];
parallel
  if pid == 0 then
    for i = 0 to N - 1 do
      for j = 0 to N - 1 do
        U[i, j] = (i * 31 + j * 17) % 10;
        V[i, j] = U[i, j];
      od
    od
  fi
  barrier;
  private bs = N / P;
  private pi = (pid - pid % P) / P;
  private pj = pid % P;
  private li = max(pi * bs, 1);
  private ui = min(pi * bs + bs - 1, N - 2);
  private lj = max(pj * bs, 1);
  private uj = min(pj * bs + bs - 1, N - 2);
  for t = 1 to T do
    for i = li to ui do
      for j = lj to uj do
        V[i, j] = 0.25 * (U[i - 1, j] + U[i + 1, j] + U[i, j - 1] + U[i, j + 1]);
      od
    od
    barrier;
    for i = li to ui do
      for j = lj to uj do
        U[i, j] = V[i, j];
      od
    od
    barrier;
  od
end
)";

// One producer, all-node consumers: the simplest program with a
// static SharedRead epoch (exercises check_out_S / prefetch planning).
constexpr const char* kBroadcast = R"(
const N = 16;
shared real A[N];
shared real S[4];
parallel
  if pid == 0 then
    for i = 0 to N - 1 do
      A[i] = i * 2;
    od
  fi
  barrier;
  private s = 0;
  for i = 0 to N - 1 do
    s = s + A[i];
  od
  S[pid] = s;
  barrier;
end
)";

struct RunOut {
  std::vector<double> u;
  Cycle time = 0;
  Cycle traps = 0;
};

RunOut run(const lang::Program& prog, std::uint32_t nodes,
           const std::string& array) {
  sim::SimConfig cfg;
  cfg.nodes = nodes;
  sim::Machine m(cfg);
  lang::LoadedProgram lp(prog, m);
  m.run([&](sim::Proc& p) { lp.run_node(p); });
  RunOut out;
  const auto [d0, d1] = lp.array_dims(array);
  for (std::size_t i = 0; i < d0; ++i) {
    for (std::size_t j = 0; j < d1; ++j) {
      out.u.push_back(lp.value(array, i, j));
    }
  }
  out.time = m.exec_time();
  out.traps = m.stats().total(Stat::Traps);
  return out;
}

/// Self-lint of the emitted text, which is what `cachier lint` reads.
analysis::LintResult text_lint(const AnnotateResult& r) {
  return analysis::lint(lang::parse(lang::unparse(r.program)));
}

TEST(StaticAnnotateTest, JacobiIsLintCleanInBothModes) {
  const lang::Program p = lang::parse(kJacobi);
  for (const cachier::Mode mode :
       {cachier::Mode::Performance, cachier::Mode::Programmer}) {
    StaticAnnotateOptions opt;
    opt.mode = mode;
    const AnnotateResult r = annotate_static(p, 4, opt);
    EXPECT_GT(r.inserted, 0u);
    EXPECT_EQ(r.dropped, 0u) << r.notes;
    const analysis::LintResult lint = text_lint(r);
    EXPECT_TRUE(lint.diagnostics.empty()) << lint.diagnostics[0].message;
  }
}

TEST(StaticAnnotateTest, JacobiSemanticsPreservedAndFaster) {
  const lang::Program p = lang::parse(kJacobi);
  const RunOut base = run(p, 4, "U");
  const AnnotateResult r = annotate_static(p, 4, {});
  // Through the same unparse -> reparse pipeline the CLI uses.
  const lang::Program round = lang::parse(lang::unparse(r.program));
  const RunOut ann = run(round, 4, "U");
  ASSERT_EQ(ann.u.size(), base.u.size());
  for (std::size_t i = 0; i < base.u.size(); ++i) {
    EXPECT_DOUBLE_EQ(ann.u[i], base.u[i]) << "U element " << i;
  }
  EXPECT_LE(ann.traps, base.traps);
  EXPECT_LT(ann.time, base.time);
}

TEST(StaticAnnotateTest, EmissionIsDeterministic) {
  const AnnotateResult r = annotate_static(lang::parse(kJacobi), 4, {});
  const AnnotateResult again = annotate_static(lang::parse(kJacobi), 4, {});
  EXPECT_EQ(lang::unparse(r.program), lang::unparse(again.program));
}

TEST(StaticAnnotateTest, BroadcastPlansSharedReadsAndPrefetch) {
  const lang::Program p = lang::parse(kBroadcast);
  StaticAnnotateOptions opt;
  opt.prefetch = true;
  const AnnotateResult r = annotate_static(p, 4, opt);
  const analysis::LintResult lint = text_lint(r);
  EXPECT_TRUE(lint.diagnostics.empty()) << lint.diagnostics[0].message;
  const std::string out = lang::unparse(r.program);
  EXPECT_NE(out.find("prefetch_S"), std::string::npos) << out;

  const RunOut base = run(p, 4, "S");
  const RunOut ann = run(lang::parse(out), 4, "S");
  ASSERT_EQ(ann.u.size(), base.u.size());
  for (std::size_t i = 0; i < base.u.size(); ++i) {
    EXPECT_DOUBLE_EQ(ann.u[i], base.u[i]) << "S element " << i;
  }
}

TEST(StaticAnnotateTest, NodesOutsideMaskWidthAreRejected) {
  const lang::Program p = lang::parse(kBroadcast);
  EXPECT_THROW((void)annotate_static(p, 0), std::exception);
  EXPECT_THROW((void)annotate_static(p, 65), std::exception);
}

}  // namespace
}  // namespace cico::srcann

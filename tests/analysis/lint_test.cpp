// CICO typestate linter tests: one positive + one negative case per rule,
// the scripted section 6 hand-annotation defects (Mp3d / Barnes / MM),
// the annotator self-lint oracle over the bundled example apps, and the
// JSON diagnostic document (shape, determinism, `cachier diff`ability).
#include "cico/analysis/typestate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>

#include "cico/analysis/diagnostics.hpp"
#include "cico/lang/interp.hpp"
#include "cico/lang/parser.hpp"
#include "cico/lang/unparse.hpp"
#include "cico/obs/diff.hpp"
#include "cico/obs/json.hpp"
#include "cico/srcann/annotator.hpp"
#include "cico/trace/trace.hpp"

namespace cico::analysis {
namespace {

LintResult lint_src(const std::string& src) {
  return lint(lang::parse(src));
}

bool has_rule(const LintResult& r, Rule rule) {
  return std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

int count_rule(const LintResult& r, Rule rule) {
  return static_cast<int>(
      std::count_if(r.diagnostics.begin(), r.diagnostics.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

// --- per-rule positive / negative cases ------------------------------------

TEST(LintRules, MissedCheckoutWriteAndRead) {
  const LintResult r = lint_src(R"(
    shared real A[8];
    parallel
      check_out_X A[0:7];
      A[0] = 1;
      check_in A[0:7];
      barrier;
      A[1] = 2;
      private x = A[2];
    end
  )");
  EXPECT_TRUE(has_rule(r, Rule::MissedCheckoutWrite));
  EXPECT_TRUE(has_rule(r, Rule::MissedCheckoutRead));
  EXPECT_EQ(r.exit_code(), 2);  // CICO001 is an error
}

TEST(LintRules, WriteThenCheckinIdiomIsClean) {
  // The annotator publishes initialization epochs as bare writes followed
  // by a check_in -- that must not count as a missed checkout.
  const LintResult r = lint_src(R"(
    shared real A[8];
    parallel
      A[0] = 1;
      check_in A[0:7];
      barrier;
      check_out_S A[0:7];
      private x = A[0];
      check_in A[0:7];
      barrier;
    end
  )");
  EXPECT_TRUE(r.diagnostics.empty())
      << rule_id(r.diagnostics[0].rule) << ": " << r.diagnostics[0].message;
}

TEST(LintRules, UnmanagedArraysAreExempt) {
  // No check_out anywhere: the program simply does not use CICO for A, so
  // bare accesses are not diagnosable (this is every unannotated input).
  const LintResult r = lint_src(R"(
    shared real A[8];
    parallel
      A[0] = 1;
      barrier;
      private x = A[0];
    end
  )");
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_EQ(r.exit_code(), 0);
}

TEST(LintRules, WriteUnderSharedCheckout) {
  const LintResult r = lint_src(R"(
    shared real A[8];
    parallel
      check_out_S A[0:7];
      A[0] = 1;
      check_in A[0:7];
      barrier;
    end
  )");
  EXPECT_TRUE(has_rule(r, Rule::WriteUnderShared));
  EXPECT_EQ(r.exit_code(), 2);
}

TEST(LintRules, LockSuppressesWriteDiagnostics) {
  const LintResult r = lint_src(R"(
    shared real A[8];
    parallel
      check_out_S A[0:7];
      lock A[0];
      A[0] = A[0] + 1;
      unlock A[0];
      check_in A[0:7];
      barrier;
    end
  )");
  EXPECT_FALSE(has_rule(r, Rule::WriteUnderShared));
  EXPECT_FALSE(has_rule(r, Rule::MissedCheckoutWrite));
}

TEST(LintRules, DoubleCheckoutSameRegionSameEpoch) {
  const LintResult r = lint_src(R"(
    shared real A[8];
    parallel
      check_out_X A[0:7];
      check_out_X A[0:7];
      A[0] = 1;
      check_in A[0:7];
      barrier;
    end
  )");
  EXPECT_TRUE(has_rule(r, Rule::DoubleCheckout));
  EXPECT_EQ(r.exit_code(), 1);
}

TEST(LintRules, DifferentRegionOrNewEpochIsNotDoubleCheckout) {
  const LintResult r = lint_src(R"(
    shared real A[8];
    parallel
      check_out_X A[0:3];
      check_out_X A[4:7];
      A[0] = 1;
      check_in A[0:7];
      barrier;
      check_out_X A[0:3];
      A[1] = 2;
      check_in A[0:3];
      barrier;
    end
  )");
  EXPECT_FALSE(has_rule(r, Rule::DoubleCheckout));
}

TEST(LintRules, CheckinWithoutCheckoutOrWrites) {
  const LintResult r = lint_src(R"(
    shared real A[8];
    parallel
      check_in A[0:7];
    end
  )");
  EXPECT_TRUE(has_rule(r, Rule::CheckinWithoutCheckout));
  EXPECT_EQ(r.exit_code(), 2);
}

TEST(LintRules, CheckoutLeakAtProgramEnd) {
  const LintResult r = lint_src(R"(
    shared real A[8];
    parallel
      check_out_X A[0:7];
      A[0] = 1;
      barrier;
    end
  )");
  ASSERT_TRUE(has_rule(r, Rule::CheckoutLeak));
  // Anchored at the first check_out of the leaking array.
  for (const Diagnostic& d : r.diagnostics) {
    if (d.rule == Rule::CheckoutLeak) {
      EXPECT_EQ(d.array, "A");
      EXPECT_EQ(d.line, 4);
    }
  }
}

TEST(LintRules, PairedOnSomePathSuppressesLeak) {
  // A is checked in on one path: the pairing exists, so holding the region
  // to program end on the other path is deliberate (the annotator's
  // programmer placement does exactly this).  B has no check_in anywhere.
  const LintResult r = lint_src(R"(
    shared real A[8];
    shared real B[8];
    parallel
      check_out_X A[0:7];
      check_out_X B[0:7];
      A[0] = 1;
      B[0] = 1;
      if pid == 0 then
        check_in A[0:7];
      fi
      barrier;
    end
  )");
  ASSERT_TRUE(has_rule(r, Rule::CheckoutLeak));
  for (const Diagnostic& d : r.diagnostics) {
    if (d.rule == Rule::CheckoutLeak) {
      EXPECT_EQ(d.array, "B");
    }
  }
}

TEST(LintRules, EarlyCheckinBeforeLaterUse) {
  const LintResult r = lint_src(R"(
    shared real A[8];
    parallel
      check_out_X A[0:7];
      A[0] = 1;
      check_in A[0:7];
      private x = A[0];
      barrier;
    end
  )");
  EXPECT_TRUE(has_rule(r, Rule::EarlyCheckin));
}

TEST(LintRules, CheckinBeforeBarrierOrRecheckoutIsNotEarly) {
  const LintResult r = lint_src(R"(
    shared real A[8];
    parallel
      check_out_X A[0:7];
      A[0] = 1;
      check_in A[0:7];
      barrier;
      check_out_S A[0:7];
      private x = A[0];
      check_in A[0:7];
      barrier;
      check_out_X A[0:7];
      A[1] = 1;
      check_in A[0:7];
      check_out_X A[0:7];
      A[2] = 2;
      check_in A[0:7];
      barrier;
    end
  )");
  EXPECT_FALSE(has_rule(r, Rule::EarlyCheckin))
      << "uses beyond a barrier or behind a re-checkout are covered";
}

TEST(LintRules, RedundantLoopCheckout) {
  const LintResult r = lint_src(R"(
    shared real A[8];
    parallel
      for i = 0 to 7 do
        check_out_S A[0:7];
        private x = A[i];
      od
      check_in A[0:7];
      barrier;
    end
  )");
  EXPECT_TRUE(has_rule(r, Rule::RedundantLoopCheckout));
}

TEST(LintRules, LoopVariantOrBarrierLoopCheckoutIsFine) {
  const LintResult r = lint_src(R"(
    shared real A[8];
    shared real B[8];
    parallel
      for i = 0 to 7 do
        check_out_X A[i:i];
        A[i] = i;
        check_in A[i:i];
      od
      for i = 0 to 7 do
        check_out_S B[0:7];
        private x = B[i];
        check_in B[0:7];
        barrier;
      od
    end
  )");
  EXPECT_FALSE(has_rule(r, Rule::RedundantLoopCheckout));
}

TEST(LintRules, PrefetchAfterFirstUse) {
  const LintResult r = lint_src(R"(
    shared real A[8];
    parallel
      check_out_X A[0:7];
      A[0] = 1;
      prefetch_X A[0:7];
      check_in A[0:7];
      barrier;
    end
  )");
  EXPECT_TRUE(has_rule(r, Rule::PrefetchAfterUse));
}

TEST(LintRules, PrefetchBeforeUseIsFine) {
  const LintResult r = lint_src(R"(
    shared real A[8];
    parallel
      prefetch_X A[0:7];
      check_out_X A[0:7];
      A[0] = 1;
      check_in A[0:7];
      barrier;
    end
  )");
  EXPECT_FALSE(has_rule(r, Rule::PrefetchAfterUse));
}

// --- the scripted section 6 defects ----------------------------------------

// Mp3d: check_in too early, the move phase still reads PART in-epoch.
constexpr const char* kMp3dEarlyCheckin = R"(
const N = 64;
shared real PART[N];
shared real CELL[N];
parallel
  private per = N / nprocs;
  private lo = pid * per;
  private hi = lo + per - 1;
  check_out_X PART[lo:hi];
  for i = lo to hi do
    PART[i] = PART[i] + 1;
  od
  check_in PART[lo:hi];
  check_out_X CELL[lo:hi];
  for i = lo to hi do
    CELL[i] = CELL[i] + PART[i];
  od
  check_in CELL[lo:hi];
  barrier;
end
)";

// Barnes: the position-update epoch was never annotated.
constexpr const char* kBarnesMissed = R"(
const N = 64;
shared real BODY[N];
shared real FORCE[N];
parallel
  private per = N / nprocs;
  private lo = pid * per;
  private hi = lo + per - 1;
  check_out_S BODY[0:N-1];
  check_out_X FORCE[lo:hi];
  for i = lo to hi do
    FORCE[i] = BODY[i] * 2;
  od
  check_in FORCE[lo:hi];
  check_in BODY[0:N-1];
  barrier;
  for i = lo to hi do
    BODY[i] = BODY[i] + FORCE[i];
  od
  barrier;
end
)";

// MM: the B panel is re-checked-out every row although loop-invariant.
constexpr const char* kMmRedundant = R"(
const N = 16;
shared real A[N, N];
shared real B[N, N];
shared real C[N, N];
parallel
  private rows = N / nprocs;
  private lo = pid * rows;
  private hi = lo + rows - 1;
  check_out_X C[lo:hi, 0:N-1];
  check_out_S A[lo:hi, 0:N-1];
  for i = lo to hi do
    check_out_S B[0:N-1, 0:N-1];
    for j = 0 to N - 1 do
      private acc = 0;
      for k = 0 to N - 1 do
        acc = acc + A[i, k] * B[k, j];
      od
      C[i, j] = acc;
    od
  od
  check_in B[0:N-1, 0:N-1];
  check_in A[lo:hi, 0:N-1];
  check_in C[lo:hi, 0:N-1];
  barrier;
end
)";

TEST(Section6Defects, Mp3dEarlyCheckin) {
  const LintResult r = lint_src(kMp3dEarlyCheckin);
  EXPECT_EQ(count_rule(r, Rule::EarlyCheckin), 1);
  EXPECT_TRUE(has_rule(r, Rule::MissedCheckoutRead));
  EXPECT_EQ(r.errors(), 0);
  EXPECT_EQ(r.exit_code(), 1);
}

TEST(Section6Defects, BarnesMissedAnnotation) {
  const LintResult r = lint_src(kBarnesMissed);
  EXPECT_EQ(count_rule(r, Rule::MissedCheckoutWrite), 1);
  EXPECT_EQ(count_rule(r, Rule::MissedCheckoutRead), 2);
  EXPECT_EQ(r.exit_code(), 2);
}

TEST(Section6Defects, MmRedundantLoopCheckout) {
  const LintResult r = lint_src(kMmRedundant);
  EXPECT_EQ(count_rule(r, Rule::RedundantLoopCheckout), 1);
  EXPECT_EQ(r.errors(), 0);
  EXPECT_EQ(r.exit_code(), 1);
  for (const Diagnostic& d : r.diagnostics) {
    if (d.rule == Rule::RedundantLoopCheckout) {
      EXPECT_EQ(d.array, "B");
    }
  }
}

TEST(Section6Defects, FixedVariantsAreClean) {
  // Each defect fixed the way the hint says: late check_in, annotated
  // second epoch, hoisted checkout.
  const LintResult mp3d = lint_src(R"(
    const N = 64;
    shared real PART[N];
    parallel
      private per = N / nprocs;
      private lo = pid * per;
      private hi = lo + per - 1;
      check_out_X PART[lo:hi];
      for i = lo to hi do
        PART[i] = PART[i] + 1;
      od
      private s = PART[lo];
      check_in PART[lo:hi];
      barrier;
    end
  )");
  EXPECT_TRUE(mp3d.diagnostics.empty());

  const LintResult mm = lint_src(R"(
    const N = 16;
    shared real B[N, N];
    parallel
      check_out_S B[0:N-1, 0:N-1];
      for i = 0 to N - 1 do
        private acc = B[i, 0];
      od
      check_in B[0:N-1, 0:N-1];
      barrier;
    end
  )");
  EXPECT_TRUE(mm.diagnostics.empty());
}

// --- annotator self-lint oracle --------------------------------------------

struct Pipeline {
  lang::Program prog;
  trace::Trace trace;
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<lang::LoadedProgram> lp;
};

Pipeline trace_program(const std::string& src, std::uint32_t nodes) {
  Pipeline pl;
  pl.prog = lang::parse(src);
  sim::SimConfig cfg;
  cfg.nodes = nodes;
  cfg.trace_mode = true;
  pl.machine = std::make_unique<sim::Machine>(cfg);
  trace::TraceWriter w;
  pl.machine->set_trace_writer(&w);
  pl.lp = std::make_unique<lang::LoadedProgram>(pl.prog, *pl.machine);
  w.set_labels(pl.machine->heap().trace_labels());
  pl.machine->run([&](sim::Proc& p) { pl.lp->run_node(p); });
  pl.trace = w.take();
  return pl;
}

// The bundled example apps (examples/minipar/*.mp), embedded so the test
// binary has no run-directory dependence.
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

constexpr const char* kMatmul = R"(
const N = 16;
const PR = 4;
const PC = 2;
shared real A[N, N];
shared real B[N, N];
shared real C[N, N];
parallel
  if pid == 0 then
    for i = 0 to N - 1 do
      for j = 0 to N - 1 do
        A[i, j] = i + j;
        B[i, j] = i - j;
        C[i, j] = 0;
      od
    od
  fi
  barrier;
  private kb = (pid - pid % PC) / PC;
  private jb = pid % PC;
  private lk = kb * (N / PR);
  private uk = lk + N / PR - 1;
  private lj = jb * (N / PC);
  private uj = lj + N / PC - 1;
  for i = 0 to N - 1 do
    for k = lk to uk do
      private t = A[i, k];
      for j = lj to uj do
        C[i, j] = C[i, j] + t * B[k, j];
      od
    od
  od
  barrier;
end
)";

constexpr const char* kReduce = R"(
const N = 64;
shared real A[N];
shared real SUM[2];
parallel
  private per = N / nprocs;
  private lo = pid * per;
  for i = lo to lo + per - 1 do
    A[i] = i + 1;
  od
  barrier;
  private s = 0;
  for i = lo to lo + per - 1 do
    s = s + A[i];
  od
  SUM[0] = SUM[0] + s;
  lock SUM[1];
  SUM[1] = SUM[1] + s;
  unlock SUM[1];
  barrier;
end
)";

class SelfLintTest : public ::testing::TestWithParam<
                         std::tuple<const char*, std::uint32_t, cachier::Mode>> {};

TEST_P(SelfLintTest, GeneratedAnnotationsAreClean) {
  const auto& [src, nodes, mode] = GetParam();
  Pipeline pl = trace_program(src, nodes);
  const srcann::AnnotateResult res =
      srcann::annotate(pl.prog, pl.trace, *pl.lp,
                       pl.machine->config().cache, {.mode = mode});
  // Contract: Cachier's own output, linted as the text `cachier annotate`
  // prints, never contains a hard CICO violation.  Programmer placement
  // may deliberately drop a check_in when it judges termination will
  // reclaim the region (matmul's B), which self-lint is allowed to surface
  // as a warning; the default performance placement must be wholly
  // diagnostic-free.
  const std::string out = lang::unparse(res.program);
  const LintResult self = lint(lang::parse(out));
  EXPECT_EQ(self.errors(), 0U)
      << "self-lint: " << rule_id(self.diagnostics[0].rule) << " "
      << self.diagnostics[0].message << "\n"
      << out;
  if (mode == cachier::Mode::Performance) {
    EXPECT_TRUE(self.diagnostics.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Apps, SelfLintTest,
    ::testing::Values(
        std::make_tuple(kJacobi, 4u, cachier::Mode::Performance),
        std::make_tuple(kJacobi, 4u, cachier::Mode::Programmer),
        std::make_tuple(kMatmul, 8u, cachier::Mode::Performance),
        std::make_tuple(kMatmul, 8u, cachier::Mode::Programmer),
        std::make_tuple(kReduce, 8u, cachier::Mode::Performance),
        std::make_tuple(kReduce, 8u, cachier::Mode::Programmer)));

// --- diagnostics plumbing ---------------------------------------------------

TEST(Diagnostics, DeterministicOrderAndDedup) {
  const LintResult a = lint_src(kBarnesMissed);
  const LintResult b = lint_src(kBarnesMissed);
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
  for (std::size_t i = 0; i < a.diagnostics.size(); ++i) {
    EXPECT_EQ(a.diagnostics[i].rule, b.diagnostics[i].rule);
    EXPECT_EQ(a.diagnostics[i].line, b.diagnostics[i].line);
    EXPECT_EQ(a.diagnostics[i].col, b.diagnostics[i].col);
    EXPECT_EQ(a.diagnostics[i].message, b.diagnostics[i].message);
  }
  // Sorted by (line, col, ...).
  for (std::size_t i = 1; i < a.diagnostics.size(); ++i) {
    const auto& p = a.diagnostics[i - 1];
    const auto& q = a.diagnostics[i];
    EXPECT_LE(std::tie(p.line, p.col), std::tie(q.line, q.col));
  }
}

TEST(Diagnostics, RuleIdsAreStable) {
  EXPECT_EQ(rule_id(Rule::MissedCheckoutWrite), "CICO001");
  EXPECT_EQ(rule_id(Rule::EarlyCheckin), "CICO007");
  EXPECT_EQ(rule_id(Rule::RedundantLoopCheckout), "CICO008");
  EXPECT_EQ(rule_id(Rule::PrefetchAfterUse), "CICO009");
  EXPECT_STREQ(rule_name(Rule::EarlyCheckin), "early-checkin");
}

TEST(Diagnostics, JsonDocumentShapeAndRoundTrip) {
  const LintResult r = lint_src(kMp3dEarlyCheckin);
  const obs::Json doc = lint_json("mp3d.mp", r);
  ASSERT_NE(doc.find("schema_version"), nullptr);
  EXPECT_EQ(doc.find("schema_version")->as_u64(),
            static_cast<std::uint64_t>(kLintSchemaVersion));
  EXPECT_EQ(doc.find("generator")->as_string(), "cachier-lint");
  EXPECT_EQ(doc.find("file")->as_string(), "mp3d.mp");
  const obs::Json* summary = doc.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("errors")->as_u64(), 0u);
  EXPECT_EQ(summary->find("warnings")->as_u64(),
            static_cast<std::uint64_t>(r.warnings()));
  EXPECT_EQ(summary->find("exit")->as_u64(), 1u);
  const obs::Json* diags = doc.find("diagnostics");
  ASSERT_NE(diags, nullptr);
  ASSERT_EQ(diags->size(), r.diagnostics.size());
  const obs::Json& first = diags->at(0);
  ASSERT_NE(first.find("rule"), nullptr);
  EXPECT_EQ(first.find("rule")->as_string(),
            rule_id(r.diagnostics[0].rule));
  EXPECT_EQ(first.find("line")->as_u64(),
            static_cast<std::uint64_t>(r.diagnostics[0].line));
  // parse(dump) is the identity (the obs::Json determinism contract).
  const std::string text = doc.dump_string();
  EXPECT_EQ(obs::Json::parse(text).dump_string(), text);
}

TEST(Diagnostics, JsonIsDiffableWithCachierDiff) {
  const obs::Json base = lint_json("a.mp", lint_src(kMp3dEarlyCheckin));
  const obs::Json same = lint_json("a.mp", lint_src(kMp3dEarlyCheckin));
  const obs::ToleranceSet tol;
  const obs::DiffResult identical = obs::diff_reports(base, same, tol);
  EXPECT_EQ(identical.outcome, obs::DiffOutcome::Identical);
  // A defect fixed -> the diff flags the change (regression gate trips
  // in whichever direction the goldens move).
  const obs::Json fixed = lint_json("a.mp", lint_src(kBarnesMissed));
  const obs::DiffResult changed = obs::diff_reports(base, fixed, tol);
  EXPECT_EQ(changed.outcome, obs::DiffOutcome::Regression);
  EXPECT_FALSE(changed.divergences.empty());
}

TEST(Diagnostics, TextListingFormat) {
  std::ostringstream os;
  print_text(os, "prog.mp", lint_src(kMmRedundant));
  const std::string out = os.str();
  EXPECT_NE(out.find("prog.mp:"), std::string::npos);
  EXPECT_NE(out.find("warning: [CICO008]"), std::string::npos);
  EXPECT_NE(out.find("hint: hoist the directive"), std::string::npos);
  EXPECT_NE(out.find("0 error(s), 1 warning(s)"), std::string::npos);
}

}  // namespace
}  // namespace cico::analysis

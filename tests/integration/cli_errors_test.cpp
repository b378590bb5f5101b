// Exit-code contract of the cachier CLI, exercised end-to-end on the real
// binary (path passed as argv[1] by CTest): usage errors exit 1; every
// program error -- MiniPar parse failures, malformed plans, bad fault
// specs, exhausted retry budgets -- exits 2 with a one-line
// `cachier: error: ...` on stderr, never an unhandled terminate.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <tuple>
#include <vector>

namespace {

std::string g_cachier;   // set in main() from argv[1]
std::string g_examples;  // examples/minipar, from argv[2]

struct CmdResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr combined
};

CmdResult run_cli(const std::string& args) {
  const std::string cmd = "'" + g_cachier + "' " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  CmdResult r;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  ASSERT_TRUE(out.is_open()) << path;
  out << text;
}

/// A minimal valid MiniPar program (each node stores one element).
const char* kGoodProgram =
    "const N = 64;\n"
    "shared real A[N];\n"
    "parallel\n"
    "  A[pid] = pid + 1;\n"
    "  barrier;\n"
    "end\n";

class CliErrorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    write_file(prog_, kGoodProgram);
  }
  const std::string prog_ = "cli_errors_good.mp";
};

TEST_F(CliErrorsTest, NoArgumentsIsUsageExit1) {
  const CmdResult r = run_cli("");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST_F(CliErrorsTest, UnknownCommandIsUsageExit1) {
  const CmdResult r = run_cli("frobnicate " + prog_);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST_F(CliErrorsTest, GarbageSourceIsExit2) {
  write_file("cli_errors_garbage.mp", "this is @@ not minipar $$\n");
  const CmdResult r = run_cli("run cli_errors_garbage.mp -n 4");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cachier: error:"), std::string::npos) << r.output;
}

TEST_F(CliErrorsTest, MissingFileIsExit2) {
  const CmdResult r = run_cli("run cli_errors_does_not_exist.mp -n 4");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cachier: error:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("cannot open"), std::string::npos) << r.output;
}

TEST_F(CliErrorsTest, TruncatedPlanNamesTheBadLine) {
  write_file("cli_errors_bad.plan", "cico-plan v1\nE 0 0\nS 1 0\n");
  const CmdResult r =
      run_cli("run " + prog_ + " -n 4 --plan cli_errors_bad.plan");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cachier: error: plan:"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("line 3"), std::string::npos) << r.output;
}

TEST_F(CliErrorsTest, BadFaultSpecIsExit2) {
  const CmdResult r = run_cli("run " + prog_ + " -n 4 --faults drop=2.0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cachier: error: faults:"), std::string::npos)
      << r.output;
}

TEST_F(CliErrorsTest, ExhaustedRetryBudgetIsExit2) {
  const CmdResult r =
      run_cli("run " + prog_ + " -n 4 --faults drop=1.0,retries=2");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("retry budget"), std::string::npos) << r.output;
}

// --- strict numeric flag parsing (std::atoi used to accept all of these) --

TEST_F(CliErrorsTest, NonNumericNodeCountIsExit2) {
  const CmdResult r = run_cli("run " + prog_ + " -n foo");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cachier: error: invalid -n"), std::string::npos)
      << r.output;
}

TEST_F(CliErrorsTest, TrailingGarbageNodeCountIsExit2) {
  // atoi("4x") == 4: the old parser ran this on 4 nodes without a word.
  const CmdResult r = run_cli("run " + prog_ + " -n 4x");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("'4x'"), std::string::npos) << r.output;
}

TEST_F(CliErrorsTest, NegativeNodeCountIsExit2) {
  // atoi("-4") cast to uint32 used to request ~4 billion nodes.
  const CmdResult r = run_cli("run " + prog_ + " -n -4");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cachier: error:"), std::string::npos) << r.output;
}

TEST_F(CliErrorsTest, OverflowingNodeCountIsExit2) {
  const CmdResult r = run_cli("run " + prog_ + " -n 99999999999999999999");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("out of range"), std::string::npos) << r.output;
}

TEST_F(CliErrorsTest, ZeroNodeCountIsStillUsageExit1) {
  // Structurally valid number, semantically useless: usage error contract.
  const CmdResult r = run_cli("run " + prog_ + " -n 0");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST_F(CliErrorsTest, RetiredFlagsAreUsageExit1) {
  // The simulator runs every node on one host thread, and paranoid audits
  // are always memoized; the old flags are now just unknown arguments.
  for (const char* flag : {" --boundary-threads x", " --no-audit-memo"}) {
    const CmdResult r = run_cli("run " + prog_ + flag);
    EXPECT_EQ(r.exit_code, 1) << flag;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
  }
}

TEST_F(CliErrorsTest, BadCampaignsIsExit2) {
  const CmdResult r = run_cli("soak --campaigns many");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--campaigns"), std::string::npos) << r.output;
}

TEST_F(CliErrorsTest, BadSeedIsExit2) {
  const CmdResult r = run_cli("soak --seed 12three");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--seed"), std::string::npos) << r.output;
}

// --- trace --load validation ----------------------------------------------

TEST_F(CliErrorsTest, TraceLoadRoundTripsExit0) {
  const CmdResult dump = run_cli("trace " + prog_ + " -n 4");
  ASSERT_EQ(dump.exit_code, 0) << dump.output;
  // stdout began with the trace header; stderr was empty on success.
  write_file("cli_errors_trace.txt", dump.output);
  const CmdResult r = run_cli("trace --load cli_errors_trace.txt");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output, dump.output);
}

TEST_F(CliErrorsTest, TraceLoadBadKindNamesTheLine) {
  write_file("cli_errors_trace_bad.txt",
             "cico-trace v1\nM 0 0 7 4096 8 1\n");
  const CmdResult r = run_cli("trace --load cli_errors_trace_bad.txt");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cachier: error: trace: line 2"), std::string::npos)
      << r.output;
}

TEST_F(CliErrorsTest, TraceLoadTrailingJunkIsExit2) {
  write_file("cli_errors_trace_junk.txt",
             "cico-trace v1\nB 0 0 1 555 junk\n");
  const CmdResult r = run_cli("trace --load cli_errors_trace_junk.txt");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("line 2"), std::string::npos) << r.output;
}

TEST_F(CliErrorsTest, TraceLoadMissingFileIsExit2) {
  const CmdResult r = run_cli("trace --load cli_errors_no_such_trace.txt");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos) << r.output;
}

// --- observability flags ---------------------------------------------------

TEST_F(CliErrorsTest, ReportToUnwritablePathIsExit2) {
  const CmdResult r =
      run_cli("run " + prog_ + " -n 4 --report no_such_dir/out.json");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cannot write"), std::string::npos) << r.output;
}

TEST_F(CliErrorsTest, StreamEpochsWithoutReportIsUsageExit1) {
  // The retired --stream-epochs flag is an unknown argument: usage, exit 1.
  const CmdResult r = run_cli("run " + prog_ + " -n 4 --stream-epochs");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

// --- diff: 0/1/2 outcome contract on the real binary -----------------------

class CliDiffTest : public CliErrorsTest {
 protected:
  void SetUp() override {
    CliErrorsTest::SetUp();
    ASSERT_EQ(run_cli("run " + prog_ + " -n 4 --report cli_diff_base.json")
                  .exit_code,
              0);
  }
};

TEST_F(CliDiffTest, IdenticalReportsExit0) {
  const CmdResult r = run_cli("diff cli_diff_base.json cli_diff_base.json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("identical"), std::string::npos) << r.output;
}

TEST_F(CliDiffTest, DivergentReportExits2AndTolerancesDowngradeTo1) {
  ASSERT_EQ(run_cli("run " + prog_ + " -n 8 --report cli_diff_cand.json")
                .exit_code,
            0);
  const CmdResult reg = run_cli("diff cli_diff_base.json cli_diff_cand.json");
  EXPECT_EQ(reg.exit_code, 2) << reg.output;
  EXPECT_NE(reg.output.find("REGRESSION"), std::string::npos) << reg.output;

  // Ignoring everything but one numeric counter, with a generous bound,
  // leaves only tolerated divergences: exit 1.  (totals.barriers scales
  // with the node count, so it is guaranteed to diverge here.)
  write_file("cli_diff_rules.toml",
             "[tolerance]\n"
             "runs.*.totals.barriers = \"rel=10000%\"\n");
  const CmdResult tol = run_cli(
      "diff cli_diff_base.json cli_diff_cand.json "
      "--tolerances cli_diff_rules.toml --tol '**=ignore' "
      "--tol 'runs.*.totals.barriers=rel=10000%'");
  EXPECT_EQ(tol.exit_code, 1) << tol.output;
  EXPECT_NE(tol.output.find("(exit 1)"), std::string::npos) << tol.output;
}

TEST_F(CliDiffTest, MalformedJsonNamesFileAndLineExit2) {
  write_file("cli_diff_bad.json", "{\n  \"schema_version\": ]\n}\n");
  const CmdResult r = run_cli("diff cli_diff_base.json cli_diff_bad.json");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cachier: error: cli_diff_bad.json"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("line 2"), std::string::npos) << r.output;
}

TEST_F(CliDiffTest, UnsupportedSchemaVersionIsExit2) {
  write_file("cli_diff_v99.json", "{\n  \"schema_version\": 99\n}\n");
  const CmdResult r = run_cli("diff cli_diff_base.json cli_diff_v99.json");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unsupported schema_version 99"), std::string::npos)
      << r.output;
}

TEST_F(CliDiffTest, BadToleranceFileNamesTheLineExit2) {
  write_file("cli_diff_bad_rules.toml", "a = \"abs=1\"\nnot a rule\n");
  const CmdResult r = run_cli(
      "diff cli_diff_base.json cli_diff_base.json "
      "--tolerances cli_diff_bad_rules.toml");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cli_diff_bad_rules.toml"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("line 2"), std::string::npos) << r.output;
}

TEST_F(CliDiffTest, MissingCandidateArgumentIsUsageExit1) {
  const CmdResult r = run_cli("diff cli_diff_base.json");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST_F(CliDiffTest, SummaryIsOneLinePerVerdict) {
  const CmdResult same =
      run_cli("diff cli_diff_base.json cli_diff_base.json --summary");
  EXPECT_EQ(same.exit_code, 0) << same.output;
  EXPECT_EQ(same.output, "diff: IDENTICAL divergences=0 tolerated=0 "
                         "regressions=0 exit=0\n");

  ASSERT_EQ(run_cli("run " + prog_ + " -n 8 --report cli_diff_sum_cand.json")
                .exit_code,
            0);
  const CmdResult reg = run_cli(
      "diff cli_diff_base.json cli_diff_sum_cand.json --summary");
  EXPECT_EQ(reg.exit_code, 2) << reg.output;
  EXPECT_EQ(reg.output.compare(0, 17, "diff: REGRESSION "), 0) << reg.output;
  // Exactly one line, ending in the exit code.
  EXPECT_EQ(reg.output.find('\n'), reg.output.size() - 1) << reg.output;
  EXPECT_NE(reg.output.find("exit=2"), std::string::npos) << reg.output;
}

// --- lint: 0/1/2 severity contract and --json sidecar -----------------------

class CliLintTest : public CliErrorsTest {
 protected:
  // kGoodProgram has shared writes but no directives at all, so no array is
  // CICO-managed and the linter stays silent.
  const std::string warn_ = "cli_lint_warn.mp";
  const std::string err_ = "cli_lint_err.mp";
  void SetUp() override {
    CliErrorsTest::SetUp();
    // Checked out, used, never checked in anywhere: CICO006 warning.
    write_file(warn_,
               "shared real A[8];\n"
               "parallel\n"
               "  check_out_X A[0:7];\n"
               "  A[0] = 1;\n"
               "  barrier;\n"
               "end\n");
    // Write under a shared (read-only) checkout: CICO003 error.
    write_file(err_,
               "shared real A[8];\n"
               "parallel\n"
               "  check_out_S A[0:7];\n"
               "  A[0] = 1;\n"
               "  check_in A[0:7];\n"
               "  barrier;\n"
               "end\n");
  }
};

TEST_F(CliLintTest, CleanProgramIsExit0) {
  const CmdResult r = run_cli("lint " + prog_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 error(s), 0 warning(s)"), std::string::npos)
      << r.output;
}

TEST_F(CliLintTest, WarningsAreExit1) {
  const CmdResult r = run_cli("lint " + warn_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[CICO006]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(warn_ + ":3:3: warning:"), std::string::npos)
      << r.output;
}

TEST_F(CliLintTest, ErrorsAreExit2) {
  const CmdResult r = run_cli("lint " + err_);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[CICO003]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("error:"), std::string::npos) << r.output;
}

TEST_F(CliLintTest, JsonSidecarIsWrittenAndDiffable) {
  ASSERT_EQ(run_cli("lint " + warn_ + " --json cli_lint_a.json").exit_code, 1);
  std::ifstream in("cli_lint_a.json");
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(doc.find("\"generator\": \"cachier-lint\""), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"rule\": \"CICO006\""), std::string::npos) << doc;
  // The diagnostics document rides the same differ as run reports.
  const CmdResult same =
      run_cli("diff cli_lint_a.json cli_lint_a.json --summary");
  EXPECT_EQ(same.exit_code, 0) << same.output;
  ASSERT_EQ(run_cli("lint " + err_ + " --json cli_lint_b.json").exit_code, 2);
  const CmdResult reg = run_cli("diff cli_lint_a.json cli_lint_b.json");
  EXPECT_EQ(reg.exit_code, 2) << reg.output;
}

TEST_F(CliLintTest, MissingFileIsExit2) {
  const CmdResult r = run_cli("lint cli_lint_no_such_file.mp");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos) << r.output;
}

TEST_F(CliLintTest, JsonToUnwritablePathIsExit2) {
  const CmdResult r =
      run_cli("lint " + warn_ + " --json no_such_dir/diag.json");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cannot write"), std::string::npos) << r.output;
}

TEST_F(CliLintTest, AnnotateSelfLintReportsDefectsOnItsOutput) {
  // annotate | lint is the supported pipeline: the annotated program must
  // never lint worse than warnings (exit 0 or 1, never 2).
  ASSERT_EQ(
      run_cli("annotate " + prog_ + " -n 4 2>/dev/null > cli_lint_ann.mp")
          .exit_code,
      0);
  const CmdResult r = run_cli("lint cli_lint_ann.mp");
  EXPECT_NE(r.exit_code, 2) << r.output;
}

// --- lint --fix and annotate --static ---------------------------------------

namespace {
std::string slurp_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}
}  // namespace

TEST_F(CliLintTest, FixOnCleanProgramIsIdentityExit0) {
  const CmdResult r = run_cli("lint --fix " + prog_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 fixes"), std::string::npos) << r.output;
}

TEST_F(CliLintTest, FixRepairsFindingsAndIsIdempotent) {
  // Both hand defects (a CICO006 leak and a CICO003 write-under-S) have
  // machine fixes, so --fix must reach exit 0 on each.
  for (const std::string& src : {warn_, err_}) {
    EXPECT_EQ(run_cli("lint --fix " + src).exit_code, 0) << src;
  }
  // Fixed output lints clean and re-fixes to the same bytes.  The pipe
  // through cat keeps the fix log (stderr) out of the emitted program.
  run_cli("lint --fix " + warn_ + " 2>/dev/null | cat > cli_fix1.mp");
  EXPECT_EQ(run_cli("lint cli_fix1.mp").exit_code, 0);
  run_cli("lint --fix cli_fix1.mp 2>/dev/null | cat > cli_fix2.mp");
  const std::string pass1 = slurp_file("cli_fix1.mp");
  const std::string pass2 = slurp_file("cli_fix2.mp");
  ASSERT_FALSE(pass1.empty());
  EXPECT_EQ(pass1, pass2) << "lint --fix must be idempotent";
  const CmdResult again = run_cli("lint --fix cli_fix1.mp");
  EXPECT_EQ(again.exit_code, 0) << again.output;
  EXPECT_NE(again.output.find("0 fixes"), std::string::npos) << again.output;
}

/// Runs `annotate <args>` and checks every self-lint position against the
/// emitted program: `<annotated>:L:C` must name a line of stdout, and that
/// line must mention the quoted array.  Returns the number of positions
/// checked.
int check_self_lint_positions(const std::string& args) {
  const int status = std::system(("'" + g_cachier + "' annotate " + args +
                                   " > cli_selflint.out 2> cli_selflint.err")
                                      .c_str());
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) <= 2) << status;
  std::vector<std::string> out_lines;
  std::istringstream out(slurp_file("cli_selflint.out"));
  for (std::string line; std::getline(out, line);) out_lines.push_back(line);
  std::istringstream err(slurp_file("cli_selflint.err"));
  int checked = 0;
  for (std::string line; std::getline(err, line);) {
    std::size_t ln = 0;
    std::size_t col = 0;
    if (std::sscanf(line.c_str(), "<annotated>:%zu:%zu:", &ln, &col) != 2) {
      continue;
    }
    ++checked;
    const std::size_t q = line.find('\'');
    const std::size_t q_end = line.find('\'', q + 1);
    if (q_end == std::string::npos || ln < 1 || ln > out_lines.size()) {
      ADD_FAILURE() << "position outside stdout (" << out_lines.size()
                    << " lines) or no quoted array: " << line;
      continue;
    }
    const std::string name = line.substr(q + 1, q_end - q - 1);
    EXPECT_NE(out_lines[ln - 1].find(name), std::string::npos)
        << line << "\n  stdout line " << ln << ": " << out_lines[ln - 1];
  }
  return checked;
}

/// A stencil time loop followed by a band reduction.  It lints clean, and
/// `annotate --static -n 4` on it emits CICO005 errors on generated
/// check_ins (an emitter defect).
const char* kStencilThenBands =
    "const R0 = 8;\n"
    "const M0 = 8;\n"
    "shared real A0[R0, M0];\n"
    "shared real B0[R0, M0];\n"
    "const N1 = 16;\n"
    "shared real X1[N1];\n"
    "shared real S1[4];\n"
    "parallel\n"
    "  private rs0 = R0 / nprocs;\n"
    "  private lo0 = max(pid * rs0, 1);\n"
    "  private hi0 = min(pid * rs0 + rs0 - 1, R0 - 2);\n"
    "  if pid == 0 then\n"
    "    for i = 0 to R0 - 1 do\n"
    "      for j = 0 to M0 - 1 do\n"
    "        A0[i, j] = (i * 7 + j * 5) % 11;\n"
    "      od\n"
    "    od\n"
    "  fi\n"
    "  barrier;\n"
    "  for t = 1 to 2 do\n"
    "    for i = lo0 to hi0 do\n"
    "      for j = 1 to M0 - 2 do\n"
    "        B0[i, j] = 0.25 * (A0[i - 1, j] + A0[i + 1, j] +\n"
    "                           A0[i, j - 1] + A0[i, j + 1]);\n"
    "      od\n"
    "    od\n"
    "    barrier;\n"
    "    for i = lo0 to hi0 do\n"
    "      for j = 1 to M0 - 2 do\n"
    "        A0[i, j] = B0[i, j];\n"
    "      od\n"
    "    od\n"
    "    barrier;\n"
    "  od\n"
    "  private pb1 = N1 / nprocs;\n"
    "  for i = pid * pb1 to pid * pb1 + pb1 - 1 do\n"
    "    X1[i] = i * 3 + pid;\n"
    "  od\n"
    "  barrier;\n"
    "  private s1 = 0;\n"
    "  for i = 0 to N1 - 1 do\n"
    "    s1 = s1 + X1[i];\n"
    "  od\n"
    "  S1[pid] = s1;\n"
    "  barrier;\n"
    "end\n";

TEST_F(CliLintTest, SelfLintPositionsPointIntoTheAnnotatedOutput) {
  // Trace mode on barnes: CICO002 warnings on POS reads.
  EXPECT_GT(check_self_lint_positions(g_examples + "/barnes.mp -n 4"), 0)
      << slurp_file("cli_selflint.err");
  // --static on kStencilThenBands: CICO005 errors (once the emitter defect
  // is fixed this input has no diagnostics left to check).
  write_file("cli_selflint_sb.mp", kStencilThenBands);
  ASSERT_EQ(run_cli("lint cli_selflint_sb.mp").exit_code, 0);
  check_self_lint_positions("--static cli_selflint_sb.mp -n 4");
}

/// Self-lint oracle over (input, --static?): the `# cachier: self-lint:`
/// block that `annotate` prints must be exactly what `cachier lint`
/// prints for its stdout, with the file read as `<annotated>`.  No block
/// means lint finds nothing on the output.  Inputs are the bundled
/// examples plus kStencilThenBands, whose static output has errors.
class CliSelfLintOracleTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(CliSelfLintOracleTest, BlockEqualsLintOfStdout) {
  const auto& [input, static_mode] = GetParam();
  std::string src = g_examples + "/" + input;
  if (input == "cli_selflint_sb.mp") {
    write_file(input, kStencilThenBands);
    src = input;
  }
  const std::string out = "cli_oracle.out";
  const int status =
      std::system(("'" + g_cachier + "' annotate " +
                   (static_mode ? "--static " : "") + src + " -n 4 > " + out +
                   " 2> cli_oracle.err")
                      .c_str());
  ASSERT_TRUE(WIFEXITED(status)) << status;
  const std::string err = slurp_file("cli_oracle.err");
  const std::string marker = "# cachier: self-lint:\n";
  const std::size_t at = err.find(marker);
  const std::string block = at == std::string::npos
                                ? "<annotated>: 0 error(s), 0 warning(s), 0 "
                                  "note(s)\n"
                                : err.substr(at + marker.size());

  const CmdResult lint = run_cli("lint " + out);
  std::istringstream lines(lint.output);
  std::string expected;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(out + ":", 0) == 0) {
      line = "<annotated>" + line.substr(out.size());
    }
    expected += line + "\n";
  }
  EXPECT_EQ(block, expected) << err;
  EXPECT_EQ(WEXITSTATUS(status) == 2, lint.exit_code == 2)
      << "annotate exit " << WEXITSTATUS(status) << ", lint exit "
      << lint.exit_code;
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, CliSelfLintOracleTest,
    ::testing::Combine(::testing::Values("barnes.mp", "jacobi.mp",
                                         "matmul44.mp", "mp3d.mp", "ocean.mp",
                                         "reduce.mp", "tomcatv.mp",
                                         "cli_selflint_sb.mp"),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      name = name.substr(0, name.find('.'));
      return name + (std::get<1>(info.param) ? "_static" : "_trace");
    });

TEST_F(CliErrorsTest, StaticAnnotateOutputLintsCleanExit0) {
  ASSERT_EQ(run_cli("annotate --static " + prog_ +
                    " -n 4 2>/dev/null | cat > cli_static_ann.mp")
                .exit_code,
            0);
  EXPECT_EQ(run_cli("annotate --static " + prog_ + " -n 4").exit_code, 0);
  const CmdResult r = run_cli("lint cli_static_ann.mp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(CliErrorsTest, StaticAnnotateRejectsNodeCountBeyondMaskWidth) {
  const CmdResult r = run_cli("annotate --static " + prog_ + " -n 65");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cachier: error:"), std::string::npos) << r.output;
}

TEST_F(CliErrorsTest, StaticFlagOutsideAnnotateIsUsageExit1) {
  const CmdResult r = run_cli("run " + prog_ + " --static -n 4");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST_F(CliErrorsTest, FixFlagOutsideLintIsUsageExit1) {
  const CmdResult r = run_cli("annotate " + prog_ + " --fix -n 4");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST_F(CliErrorsTest, PrefetchWithoutStaticIsUsageExit1) {
  const CmdResult r = run_cli("annotate " + prog_ + " --prefetch -n 4");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST_F(CliErrorsTest, CleanRunIsExit0) {
  const CmdResult r = run_cli("run " + prog_ + " -n 4");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("execution time"), std::string::npos) << r.output;
}

TEST_F(CliErrorsTest, FaultedRunPrintsFaultCounters) {
  const CmdResult r =
      run_cli("run " + prog_ + " -n 4 --paranoid --faults drop=0.05,retries=0");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("msg_dropped"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("retries"), std::string::npos) << r.output;
}

// --- store / sync: positional grammar and error contract --------------------

class CliStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::remove_all(dir2_, ec);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::remove_all(dir2_, ec);
  }
  const std::string dir_ = "cli_errors_store1";
  const std::string dir2_ = "cli_errors_store2";
};

TEST_F(CliStoreTest, MissingPositionalsAreUsageExit1) {
  for (const char* args : {"store", "store put", "store put somedir",
                           "store ls", "store gc", "sync", "sync onlysrc"}) {
    const CmdResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 1) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
  }
}

TEST_F(CliStoreTest, UnknownSubcommandIsUsageExit1) {
  const CmdResult r = run_cli("store frobnicate " + dir_);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST_F(CliStoreTest, GetFromNonStoreIsExit2) {
  const CmdResult r = run_cli("store get " + dir_ + " nothing");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cachier: error: store:"), std::string::npos)
      << r.output;
}

TEST_F(CliStoreTest, MalformedTraceFailsPutWithTraceError) {
  // A file that *claims* to be a trace must go through the strict loader:
  // rejecting it beats storing a corrupt artifact under a trace name.
  write_file("cli_errors_bad_trace.txt", "cico-trace v1\nM 1 2\n");
  const CmdResult r =
      run_cli("store put " + dir_ + " cli_errors_bad_trace.txt");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cachier: error: trace:"), std::string::npos)
      << r.output;
}

TEST_F(CliStoreTest, PutGetSyncRoundTrip) {
  write_file("cli_errors_blob.bin", std::string(1000, 'z'));
  const CmdResult put =
      run_cli("store put " + dir_ + " cli_errors_blob.bin --name art1");
  EXPECT_EQ(put.exit_code, 0) << put.output;
  EXPECT_NE(put.output.find("store: put art1: kind=blob"), std::string::npos)
      << put.output;

  const CmdResult ls = run_cli("store ls " + dir_);
  EXPECT_EQ(ls.exit_code, 0);
  EXPECT_NE(ls.output.find("art1 kind=blob objects=1 bytes=1000"),
            std::string::npos)
      << ls.output;

  const CmdResult sync = run_cli("sync " + dir_ + " " + dir2_);
  EXPECT_EQ(sync.exit_code, 0) << sync.output;
  EXPECT_NE(sync.output.find("objects copied=1"), std::string::npos)
      << sync.output;

  const CmdResult get =
      run_cli("store get " + dir2_ + " art1 -o cli_errors_blob_out.bin");
  EXPECT_EQ(get.exit_code, 0) << get.output;
  std::ifstream in("cli_errors_blob_out.bin", std::ios::binary);
  const std::string back((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(back, std::string(1000, 'z'));

  const CmdResult resync = run_cli("sync " + dir_ + " " + dir2_);
  EXPECT_EQ(resync.exit_code, 0);
  EXPECT_NE(resync.output.find("objects copied=0"), std::string::npos)
      << resync.output;
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc > 2) {
    g_cachier = argv[1];
    g_examples = argv[2];
  }
  if (g_cachier.empty()) {
    std::fprintf(stderr,
                 "usage: cli_errors_test <path-to-cachier> "
                 "<examples/minipar dir>\n");
    return 1;
  }
  return RUN_ALL_TESTS();
}

// End-to-end test of the REAL binaries (paths passed by CTest as argv[1]
// = cachier, argv[2] = cachierd): every program command served through
// `cachier --daemon` must print byte-identical stdout and write
// byte-identical files to the one-shot CLI, cached or fresh;
// `cachier version` prints the schema identity document; SIGTERM drains
// the daemon cleanly (exit 0, socket removed).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace std::chrono_literals;

std::string g_cachier;   // argv[1]
std::string g_cachierd;  // argv[2]

struct CmdResult {
  int exit_code = -1;
  std::string output;
};

CmdResult run_cmd(const std::string& cmd) {
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

const char* kProgram =
    "const N = 64;\n"
    "shared real A[N];\n"
    "shared real SUM[2];\n"
    "parallel\n"
    "  A[pid] = pid + 1;\n"
    "  barrier;\n"
    "  lock SUM[1];\n"
    "  SUM[1] = SUM[1] + A[pid];\n"
    "  unlock SUM[1];\n"
    "  barrier;\n"
    "end\n";

/// Runs cachierd in a child process; SIGTERMs and reaps it on teardown.
class DaemonCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sock_ = ::testing::TempDir() + "daemon_cli_test.sock";
    ::unlink(sock_.c_str());
    write_file(prog_, kProgram);
    pid_ = fork();
    ASSERT_GE(pid_, 0);
    if (pid_ == 0) {
      // Quiet child: the daemon's stderr chatter is not under test.
      FILE* null = std::freopen("/dev/null", "w", stderr);
      (void)null;
      execl(g_cachierd.c_str(), g_cachierd.c_str(), "--socket", sock_.c_str(),
            "--workers", "2", (char*)nullptr);
      _exit(127);
    }
    // The client retries while the daemon binds, so no readiness dance.
  }

  void TearDown() override {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      waitpid(pid_, &status, 0);
      EXPECT_TRUE(WIFEXITED(status));
      EXPECT_EQ(WEXITSTATUS(status), 0) << "drain must exit 0";
      // Graceful drain removes the socket file.
      struct stat st{};
      EXPECT_NE(stat(sock_.c_str(), &st), 0);
    }
    ::unlink(prog_.c_str());
    ::unlink("daemon_cli_test.err");
  }

  std::string sock_;
  pid_t pid_ = -1;
  const std::string prog_ = "daemon_cli_test.mp";
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const char* const kOutFiles[] = {"dct_r.json", "dct_e.json", "dct_l.json"};

/// Everything one CLI invocation leaves behind.
struct Outcome {
  int exit_code = -1;
  std::string out;
  std::string err;  ///< minus host-time and daemon status lines
  std::vector<std::string> files;  ///< kOutFiles' contents ("" = absent)
  bool cached = false;             ///< the daemon said "cached"
};

Outcome run_case(const std::string& cmd) {
  const CmdResult r = run_cmd(cmd + " 2>daemon_cli_test.err");
  Outcome o;
  o.exit_code = r.exit_code;
  o.out = r.output;
  std::istringstream err(slurp("daemon_cli_test.err"));
  for (std::string line; std::getline(err, line);) {
    if (line == "# cachierd: cached") o.cached = true;
    if (line.rfind("# host:", 0) != 0 && line.rfind("# cachierd:", 0) != 0) {
      o.err += line + "\n";
    }
  }
  for (const char* f : kOutFiles) {
    o.files.push_back(slurp(f));
    ::unlink(f);
  }
  return o;
}

TEST_F(DaemonCliTest, EveryCommandIsByteIdenticalToOneShot) {
  // One-shot, daemon fresh and daemon cached must agree on stdout, the
  // replayed stderr diagnostics, the exit code and every written file.
  // The program is race-free, so every case (lint included) exits 0.
  const std::string cases[] = {
      "run " + prog_ + " -n 4",
      "run " + prog_ + " -n 4 --report dct_r.json --events dct_e.json",
      "compare " + prog_ + " -n 4 --report dct_r.json --events dct_e.json",
      "annotate " + prog_ + " -n 4",
      "annotate --static --prefetch " + prog_ + " -n 4",
      "lint " + prog_,
      "lint --fix " + prog_,
      "lint " + prog_ + " --json dct_l.json",
  };
  const std::string q = "'" + g_cachier + "' ";
  const std::string daemon = " --daemon '" + sock_ + "'";
  for (const std::string& args : cases) {
    SCOPED_TRACE(args);
    const Outcome one = run_case(q + args);
    ASSERT_EQ(one.exit_code, 0) << one.err;
    ASSERT_FALSE(one.out.empty());
    for (std::size_t i = 0; i < std::size(kOutFiles); ++i) {
      const bool named = args.find(kOutFiles[i]) != std::string::npos;
      EXPECT_EQ(one.files[i].empty(), !named) << kOutFiles[i];
    }
    const Outcome fresh = run_case(q + args + daemon);
    const Outcome cached = run_case(q + args + daemon);
    EXPECT_FALSE(fresh.cached);
    EXPECT_TRUE(cached.cached);
    for (const Outcome* via : {&fresh, &cached}) {
      EXPECT_EQ(via->exit_code, one.exit_code);
      EXPECT_EQ(via->out, one.out);
      EXPECT_EQ(via->err, one.err);
      EXPECT_EQ(via->files, one.files);
    }
  }
}

TEST_F(DaemonCliTest, ParseErrorViaDaemonIsExitTwo) {
  write_file("daemon_cli_bad.mp", "this is @@ not minipar $$\n");
  const CmdResult r =
      run_cmd("'" + g_cachier + "' run daemon_cli_bad.mp --daemon '" + sock_ +
              "' 2>&1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cachier: error:"), std::string::npos) << r.output;
  ::unlink("daemon_cli_bad.mp");
}

TEST(DaemonCliStandalone, VersionPrintsSchemaDocument) {
  const CmdResult r = run_cmd("'" + g_cachier + "' version");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("\"tool\": \"cachier\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"daemon_protocol\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"report\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"lint\""), std::string::npos) << r.output;
}

TEST(DaemonCliStandalone, DaemonFlagRejectsLocalOnlySideChannels) {
  // trace --load reads a client-local trace file, so it cannot be served;
  // it is the only local-only flag.  The usage check runs before any
  // connection attempt, so no daemon is needed.
  const CmdResult r = run_cmd("'" + g_cachier +
                              "' trace --load x --daemon /tmp/x.sock 2>&1");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: daemon_cli_test <cachier-path> <cachierd-path>\n");
    return 2;
  }
  g_cachier = argv[1];
  g_cachierd = argv[2];
  return RUN_ALL_TESTS();
}

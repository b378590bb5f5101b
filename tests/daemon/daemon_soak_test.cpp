// Daemon soak: many concurrent clients hammering one Server with a mix
// of commands, repeated (cacheable) requests, poisoned sources, injected
// simulator faults, short deadlines, and mid-stream disconnects.  The
// acceptance criteria from the issue: the daemon stays live throughout
// (no deadlocks, no worker-slot leaks), drains cleanly, and every
// cache-served result is byte-identical to the fresh run that populated
// it.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cico/daemon/client.hpp"
#include "cico/daemon/protocol.hpp"
#include "cico/daemon/server.hpp"

namespace {

using namespace cico;
using namespace cico::daemon;
using namespace std::chrono_literals;

const char* kGoodProgram =
    "const N = 64;\n"
    "shared real A[N];\n"
    "parallel\n"
    "  A[pid] = pid + 1;\n"
    "  barrier;\n"
    "end\n";

const char* kRacyProgram =
    "const N = 64;\n"
    "shared real A[N];\n"
    "shared real SUM[2];\n"
    "parallel\n"
    "  A[pid] = pid + 1;\n"
    "  barrier;\n"
    "  SUM[0] = SUM[0] + A[pid];\n"
    "  barrier;\n"
    "end\n";

// About 3.5 s of simulation at -n 8 in a Release build on a 4-vCPU x86-64
// VM (20,000 barrier rounds), so an 80 ms deadline always lands mid-run.
// A cancelled job stops at its next boundary round, so the length costs
// nothing here.
const char* kSlowProgram =
    "const N = 64;\n"
    "shared real A[N];\n"
    "parallel\n"
    "  for r = 1 to 20000 do\n"
    "    for i = 0 to N - 1 do\n"
    "      A[pid] = A[pid] + 1;\n"
    "    od\n"
    "    barrier;\n"
    "  od\n"
    "end\n";

const char* kBadProgram = "this is @@ not minipar $$\n";

struct Mix {
  const char* command;
  const char* source;
  const char* faults;
  int expected_exit;  ///< -1 = any non-cancelled outcome accepted
};

/// The job mix each client cycles through.  Repeats within and across
/// clients make cache hits common; the poisoned source exercises failure
/// isolation; the fault spec exercises the injected-fault path.
const Mix kMixes[] = {
    {"run", kGoodProgram, "", 0},
    {"lint", kRacyProgram, "", 0},
    {"annotate", kRacyProgram, "", 0},
    {"report", kRacyProgram, "", 0},
    {"run", kBadProgram, "", 2},
    {"run", kGoodProgram, "drop=0.05,dup=0.02,retries=0,seed=7", 0},
    {"plan", kGoodProgram, "", 0},
    {"trace", kGoodProgram, "", 0},
};

TEST(DaemonSoak, ConcurrentClientsFaultsDisconnectsAndDeadlines) {
  ServerOptions opt;
  // Per-process path: concurrent runs of this binary never share a socket.
  opt.socket_path = ::testing::TempDir() + "cachierd_soak_" +
                    std::to_string(::getpid()) + ".sock";
  opt.workers = 4;
  opt.queue_limit = 16;
  opt.monitor_tick_ms = 10;
  ::unlink(opt.socket_path.c_str());
  Server server(opt);
  server.start();

  constexpr int kClients = 8;
  constexpr int kJobsPerClient = 10;

  // Byte-identity ledger: for every cache key, the first observed result
  // bytes; every later result under the same key must match exactly.
  std::mutex ledger_mu;
  std::map<std::string, std::string> ledger;
  std::atomic<int> failures{0};
  std::atomic<int> cache_hits{0};

  auto client_thread = [&](int id) {
    for (int j = 0; j < kJobsPerClient; ++j) {
      const Mix& mix = kMixes[(id + j) % (sizeof(kMixes) / sizeof(kMixes[0]))];
      JobRequest req;
      req.command = mix.command;
      req.name = "soak.mp";
      req.source = mix.source;
      req.cfg.nodes = 4;
      req.cfg.faults = mix.faults;
      ClientOptions c;
      c.socket_path = opt.socket_path;
      c.max_attempts = 20;  // ride out shed windows under full load
      try {
        const JobResult r = submit_job(c, req);
        if (r.cancelled) {
          ++failures;
          continue;
        }
        if (mix.expected_exit >= 0 && r.exit != mix.expected_exit) {
          ADD_FAILURE() << "client " << id << " job " << j << " ("
                        << mix.command << "): exit " << r.exit << " want "
                        << mix.expected_exit << ": " << r.error;
          ++failures;
        }
        if (r.cached) ++cache_hits;
        const std::string bytes =
            r.out + "\x1f" + r.report + "\x1f" + std::to_string(r.exit);
        std::lock_guard<std::mutex> lk(ledger_mu);
        auto [it, inserted] = ledger.emplace(r.key, bytes);
        if (!inserted && it->second != bytes) {
          ADD_FAILURE() << "cache key " << r.key
                        << " served two different byte streams";
          ++failures;
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "client " << id << " job " << j << ": " << e.what();
        ++failures;
      }
    }
  };

  // Fault injectors running alongside the well-behaved clients: abrupt
  // disconnects at each protocol stage, garbage frames, and a deadline
  // that always expires.  None may wedge the daemon.
  auto chaos_thread = [&] {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, opt.socket_path.c_str(),
                opt.socket_path.size() + 1);
    for (int j = 0; j < 12; ++j) {
      io::Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
      if (!fd.valid() ||
          ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        continue;
      }
      switch (j % 4) {
        case 0:
          break;  // connect and vanish before the hello
        case 1:   // vanish after the hello
          (void)write_frame(fd.get(), hello_frame());
          break;
        case 2: {  // submit a slow job, then vanish mid-stream
          (void)write_frame(fd.get(), hello_frame());
          obs::Json frame;
          if (read_frame(fd.get(), &frame, 5000) == FrameStatus::Ok) {
            JobRequest req;
            req.command = "run";
            req.name = "chaos.mp";
            req.source = kSlowProgram;
            req.cfg.nodes = 4;
            (void)write_frame(fd.get(), submit_frame(req));
          }
          break;
        }
        case 3: {  // raw garbage instead of a frame
          const char junk[] = "NOT A FRAME";
          (void)io::write_full(fd.get(), junk, sizeof junk);
          break;
        }
      }
      std::this_thread::sleep_for(25ms);
    }
  };

  auto deadline_thread = [&] {
    for (int j = 0; j < 3; ++j) {
      JobRequest req;
      req.command = "run";
      req.name = "deadline.mp";
      req.source = kSlowProgram;
      req.cfg.nodes = 8;  // distinct key: never collides with chaos jobs
      req.cfg.deadline_ms = 80;
      ClientOptions c;
      c.socket_path = opt.socket_path;
      c.max_attempts = 20;
      try {
        const JobResult r = submit_job(c, req);
        EXPECT_TRUE(r.cancelled) << "an 80ms deadline on a ~3.5s job";
      } catch (const std::runtime_error& e) {
        // "deadline exceeded" surfaces as an error frame; that's the
        // expected shape when the server reports it that way.
        EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos)
            << e.what();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kClients + 2);
  for (int i = 0; i < kClients; ++i) threads.emplace_back(client_thread, i);
  threads.emplace_back(chaos_thread);
  threads.emplace_back(deadline_thread);
  for (std::thread& t : threads) t.join();

  // The daemon survived the storm: it still serves a fresh job...
  ClientOptions c;
  c.socket_path = opt.socket_path;
  JobRequest req;
  req.command = "run";
  req.name = "after.mp";
  req.source = kGoodProgram;
  req.cfg.nodes = 2;
  const JobResult after = submit_job(c, req);
  EXPECT_EQ(after.exit, 0) << after.error;

  // ...no worker slot leaked (in-flight drains to zero)...
  const auto give_up = std::chrono::steady_clock::now() + 30s;
  while (server.jobs_in_flight() != 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_EQ(server.jobs_in_flight(), 0u);

  // ...the repeated mix produced real cache traffic with zero divergence
  // (every ADD_FAILURE above would have flagged one)...
  EXPECT_GT(cache_hits.load(), 0);
  EXPECT_EQ(failures.load(), 0);

  // ...and the drain completes promptly instead of deadlocking.
  server.request_drain();
  server.join();
  const Server::Counters counters = server.counters();
  EXPECT_GE(counters.completed,
            static_cast<std::uint64_t>(kClients * kJobsPerClient));
  EXPECT_GT(counters.cache_hits, 0u);
}

}  // namespace

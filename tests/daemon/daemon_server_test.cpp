// In-process Server behavior tests: byte-identical cache hits,
// bounded-queue backpressure (shed clients get retry_after, never a
// hang), disconnect reclamation, deadline expiry, version-mismatch
// rejection, and graceful drain.  Uses the real Unix socket path through
// the real client where possible, and raw frames where the test needs to
// misbehave on purpose.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
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

const char* kFastProgram =
    "const N = 64;\n"
    "shared real A[N];\n"
    "parallel\n"
    "  A[pid] = pid + 1;\n"
    "  barrier;\n"
    "end\n";

/// ~1.5s of simulated barrier rounds: long enough that deadlines and
/// backpressure races resolve deterministically, short enough for CI.
const char* kSlowProgram =
    "const N = 64;\n"
    "shared real A[N];\n"
    "parallel\n"
    "  for r = 1 to 4000 do\n"
    "    for i = 0 to N - 1 do\n"
    "      A[pid] = A[pid] + 1;\n"
    "    od\n"
    "    barrier;\n"
    "  od\n"
    "end\n";

JobRequest make_req(const char* src, const std::string& cmd = "run") {
  JobRequest req;
  req.command = cmd;
  req.name = "server_test.mp";
  req.source = src;
  req.cfg.nodes = 4;
  return req;
}

/// A unique socket path per test (the daemon unlinks it on drain).
std::string sock_path(const char* tag) {
  return ::testing::TempDir() + "cachierd_" + tag + ".sock";
}

/// Counters are bumped just after the result frame is written, so a
/// client can observe its result a beat before the server's ledger does.
template <typename Cond>
bool eventually(Cond cond, std::chrono::milliseconds limit = 5000ms) {
  const auto give_up = std::chrono::steady_clock::now() + limit;
  while (!cond()) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(5ms);
  }
  return true;
}

struct ServerFixture {
  ServerOptions opt;
  std::unique_ptr<Server> server;

  explicit ServerFixture(const char* tag, std::uint32_t workers = 2,
                         std::uint32_t queue = 8) {
    opt.socket_path = sock_path(tag);
    opt.workers = workers;
    opt.queue_limit = queue;
    opt.monitor_tick_ms = 10;
    ::unlink(opt.socket_path.c_str());
    server = std::make_unique<Server>(opt);
    server->start();
  }
  ~ServerFixture() {
    if (server != nullptr) {
      server->request_drain();
      server->join();
    }
  }

  ClientOptions client() const {
    ClientOptions c;
    c.socket_path = opt.socket_path;
    return c;
  }
};

/// Raw connection for tests that need to misbehave: returns a connected
/// fd (invalid on failure).
io::Fd raw_connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  io::Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return fd;
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    fd.reset();
  }
  return fd;
}

/// Handshakes and submits on a raw connection; returns the connected fd.
io::Fd raw_submit(const std::string& path, const JobRequest& req) {
  io::Fd fd = raw_connect(path);
  EXPECT_TRUE(fd.valid());
  EXPECT_EQ(write_frame(fd.get(), hello_frame()), FrameStatus::Ok);
  obs::Json frame;
  EXPECT_EQ(read_frame(fd.get(), &frame, 5000), FrameStatus::Ok);
  EXPECT_EQ(frame_type(frame), "hello_ok");
  EXPECT_EQ(write_frame(fd.get(), submit_frame(req)), FrameStatus::Ok);
  return fd;
}

/// Reads frames until `type` arrives (or fails the test).
obs::Json raw_wait_for(int fd, std::string_view type, int timeout_ms = 20000) {
  obs::Json frame;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(read_frame(fd, &frame, timeout_ms), FrameStatus::Ok)
        << "waiting for frame type " << type;
    if (frame_type(frame) == type) return frame;
  }
  ADD_FAILURE() << "never saw frame type " << type;
  return frame;
}

TEST(Server, FreshThenCachedAreByteIdentical) {
  ServerFixture f("cache");
  const JobRequest req = make_req(kFastProgram);
  const JobResult fresh = submit_job(f.client(), req);
  ASSERT_EQ(fresh.exit, 0) << fresh.error;
  EXPECT_FALSE(fresh.cached);
  const JobResult hit = submit_job(f.client(), req);
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.out, fresh.out);
  EXPECT_EQ(hit.diags, fresh.diags);
  EXPECT_EQ(hit.report, fresh.report);
  EXPECT_EQ(hit.key, fresh.key);
  EXPECT_TRUE(eventually([&] {
    const Server::Counters c = f.server->counters();
    return c.cache_hits == 1 && c.completed == 2;
  }));
}

TEST(Server, ConcurrentColdThenWarmJobsAreCachedAndByteIdentical) {
  // Four clients fan N distinct jobs out cold (every source differs, so
  // every key differs), then resubmit the same N: each warm result must
  // come from the cache, byte-identical to its cold result, and no job
  // may fail or be cancelled.
  constexpr std::size_t kJobs = 12, kClients = 4;
  ServerFixture f("coldwarm", /*workers=*/4, /*queue=*/64);
  const auto request = [](std::size_t idx) {
    JobRequest req;
    req.command = "run";
    req.name = "job_" + std::to_string(idx) + ".mp";
    req.source = "const N = 64;\n"
                 "shared real A[N];\n"
                 "parallel\n"
                 "  for r = 1 to " + std::to_string(8 + idx % 16) + " do\n"
                 "    A[pid] = A[pid] + " + std::to_string(idx + 1) + ";\n"
                 "    barrier;\n"
                 "  od\n"
                 "end\n";
    req.cfg.nodes = 4;
    return req;
  };
  std::vector<JobResult> cold(kJobs), warm(kJobs);
  const auto phase = [&](std::vector<JobResult>& out) {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        ClientOptions copt = f.client();
        copt.max_attempts = 20;
        for (std::size_t i = c; i < kJobs; i += kClients) {
          out[i] = submit_job(copt, request(i));
        }
      });
    }
    for (auto& t : clients) t.join();
  };
  phase(cold);
  phase(warm);
  for (std::size_t i = 0; i < kJobs; ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(cold[i].exit, 0) << cold[i].error;
    EXPECT_FALSE(cold[i].cached);
    EXPECT_TRUE(warm[i].cached);
    EXPECT_EQ(warm[i].exit, cold[i].exit);
    EXPECT_EQ(warm[i].out, cold[i].out);
    EXPECT_EQ(warm[i].diags, cold[i].diags);
    EXPECT_EQ(warm[i].key, cold[i].key);
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(cold[j].key, cold[i].key);
  }
  EXPECT_TRUE(eventually([&] {
    return f.server->counters().completed == 2 * kJobs;
  }));
  const Server::Counters c = f.server->counters();
  EXPECT_EQ(c.cache_hits, kJobs);
  EXPECT_EQ(c.failed, 0u);
  EXPECT_EQ(c.cancelled, 0u);
}

TEST(Server, DistinctConfigsDoNotShareCacheEntries) {
  ServerFixture f("cachecfg");
  JobRequest req = make_req(kFastProgram);
  const JobResult a = submit_job(f.client(), req);
  req.cfg.nodes = 8;
  const JobResult b = submit_job(f.client(), req);
  EXPECT_FALSE(b.cached);
  EXPECT_NE(a.key, b.key);
  EXPECT_NE(a.out, b.out);  // node count appears in the stats block
}

TEST(Server, SaturatedQueueShedsWithRetryAfterNotHang) {
  // One worker, queue limit one: a slow job occupies the worker, a second
  // fills the queue, the third MUST be shed with retry_after promptly.
  ServerFixture f("shed", /*workers=*/1, /*queue=*/1);
  io::Fd running = raw_submit(f.opt.socket_path, make_req(kSlowProgram));
  (void)raw_wait_for(running.get(), "status");  // queued
  // Only once the worker has taken it does the queue slot free up for the
  // second job; submitting earlier would be shed instead.
  const obs::Json started = raw_wait_for(running.get(), "status");
  ASSERT_NE(started.find("state"), nullptr);
  ASSERT_EQ(started.find("state")->as_string(), "running");
  JobRequest queued_req = make_req(kSlowProgram);
  queued_req.cfg.nodes = 8;  // distinct key so it cannot be served by cache
  io::Fd queued = raw_submit(f.opt.socket_path, queued_req);
  (void)raw_wait_for(queued.get(), "status");

  // Poll until the shed response arrives: admission of the two jobs above
  // is asynchronous, so the first probe(s) may still find a free slot.
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  bool shed = false;
  while (!shed && std::chrono::steady_clock::now() < give_up) {
    JobRequest probe_req = make_req(kSlowProgram);
    probe_req.cfg.nodes = 16;
    io::Fd probe = raw_submit(f.opt.socket_path, probe_req);
    obs::Json frame;
    ASSERT_EQ(read_frame(probe.get(), &frame, 10000), FrameStatus::Ok);
    if (frame_type(frame) == "retry_after") {
      EXPECT_GT(frame.find("ms")->as_u64(), 0u);
      shed = true;
    } else {
      // The probe got admitted (a slot freed); it will be cancelled when
      // its fd closes here, freeing the slot again.
      std::this_thread::sleep_for(50ms);
    }
  }
  EXPECT_TRUE(shed) << "queue never reported saturation";
  EXPECT_TRUE(eventually([&] { return f.server->counters().shed >= 1; }));
}

TEST(Server, MidStreamDisconnectFreesTheWorkerSlot) {
  ServerFixture f("disc", /*workers=*/1, /*queue=*/4);
  {
    io::Fd doomed = raw_submit(f.opt.socket_path, make_req(kSlowProgram));
    (void)raw_wait_for(doomed.get(), "status");
  }  // fd closes: the client vanishes mid-stream
  // The monitor must notice the hangup, cancel the run, and free the
  // worker; a follow-up fast job then completes promptly.
  ClientOptions c = f.client();
  const JobResult r = submit_job(c, make_req(kFastProgram));
  EXPECT_EQ(r.exit, 0) << r.error;
  // The slot is reclaimed (no leak): in-flight drains to zero.
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (f.server->jobs_in_flight() != 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_EQ(f.server->jobs_in_flight(), 0u);
  EXPECT_TRUE(eventually([&] { return f.server->counters().disconnects >= 1; }));
}

TEST(Server, DeadlineExpiryCancelsTheJobAndSaysSo) {
  ServerFixture f("deadline");
  JobRequest req = make_req(kSlowProgram);
  req.cfg.deadline_ms = 5;  // the slow program needs hundreds of ms
  const JobResult r = submit_job(f.client(), req);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.exit, 2);
  EXPECT_NE(r.error.find("deadline"), std::string::npos) << r.error;
  EXPECT_TRUE(eventually([&] { return f.server->counters().cancelled >= 1; }));
  // A cancelled result must never be served from cache: the same request
  // with a generous deadline runs fresh and succeeds.
  req.cfg.deadline_ms = 60000;
  const JobResult ok = submit_job(f.client(), req);
  EXPECT_EQ(ok.exit, 0) << ok.error;
  EXPECT_FALSE(ok.cached);
}

TEST(Server, PoisonedJobFailsAloneAndPoolKeepsServing) {
  ServerFixture f("poison");
  JobRequest bad = make_req("this is @@ not minipar $$\n");
  const JobResult r = submit_job(f.client(), bad);
  EXPECT_EQ(r.exit, 2);
  EXPECT_FALSE(r.error.empty());
  // Pool is still alive and serves the next job.
  const JobResult ok = submit_job(f.client(), make_req(kFastProgram));
  EXPECT_EQ(ok.exit, 0) << ok.error;
  EXPECT_TRUE(eventually([&] { return f.server->counters().failed >= 1; }));
}

TEST(Server, VersionMismatchIsRejectedAtHandshake) {
  ServerFixture f("vers");
  io::Fd fd = raw_connect(f.opt.socket_path);
  ASSERT_TRUE(fd.valid());
  obs::Json schemas = obs::Json::object();
  schemas.set("daemon_protocol",
              obs::Json::number(kDaemonProtocolVersion + 7));
  obs::Json hello = obs::Json::object();
  hello.set("type", obs::Json::string("hello"));
  hello.set("schemas", std::move(schemas));
  ASSERT_EQ(write_frame(fd.get(), hello), FrameStatus::Ok);
  obs::Json frame;
  ASSERT_EQ(read_frame(fd.get(), &frame, 5000), FrameStatus::Ok);
  EXPECT_EQ(frame_type(frame), "error");
  EXPECT_EQ(frame.find("code")->as_string(), "version_mismatch");
  EXPECT_TRUE(eventually([&] { return f.server->counters().handshake_rejects == 1; }));
}

TEST(Server, GracefulDrainFinishesQueuedWorkAndUnbindsSocket) {
  ServerOptions opt;
  opt.socket_path = sock_path("drain");
  opt.workers = 1;
  opt.queue_limit = 8;
  opt.cache_dir = ::testing::TempDir() + "cachierd_drain_cache";
  std::filesystem::remove_all(opt.cache_dir);
  ::unlink(opt.socket_path.c_str());
  Server server(opt);
  server.start();

  // A job is in the queue when the drain begins; it must still complete.
  // The "queued" status goes out before the job is published, so wait for
  // the server to count it: a drain landing in between is (correctly)
  // answered with "draining" instead.
  io::Fd pending = raw_submit(opt.socket_path, make_req(kFastProgram));
  (void)raw_wait_for(pending.get(), "status");
  ASSERT_TRUE(eventually([&] { return server.counters().submitted == 1; }));
  server.request_drain();
  const obs::Json result = raw_wait_for(pending.get(), "result");
  ASSERT_EQ(frame_type(result), "result");
  ASSERT_NE(result.find("exit"), nullptr);
  EXPECT_EQ(result.find("exit")->as_u64(), 0u);

  // New connections are refused while draining (or the socket is gone).
  io::Fd late = raw_connect(opt.socket_path);
  if (late.valid()) {
    if (write_frame(late.get(), hello_frame()) == FrameStatus::Ok) {
      obs::Json frame;
      const FrameStatus st = read_frame(late.get(), &frame, 5000);
      if (st == FrameStatus::Ok && frame_type(frame) == "hello_ok") {
        (void)write_frame(late.get(), submit_frame(make_req(kFastProgram)));
        obs::Json reply;
        if (read_frame(late.get(), &reply, 5000) == FrameStatus::Ok) {
          EXPECT_EQ(frame_type(reply), "error");
          EXPECT_EQ(reply.find("code")->as_string(), "draining");
        }
      }
    }
  }

  server.join();
  // Socket file removed; cache index flushed.
  EXPECT_FALSE(std::filesystem::exists(opt.socket_path));
  EXPECT_TRUE(std::filesystem::exists(opt.cache_dir + "/index.json"));
  std::filesystem::remove_all(opt.cache_dir);
}

TEST(Server, SecondServerOnLivePathRefusesToStart) {
  ServerFixture f("dup");
  ServerOptions opt2 = f.opt;
  Server second(opt2);
  EXPECT_THROW(second.start(), std::runtime_error);
}

TEST(Server, ClientRetriesUntilDaemonAppears) {
  // The client's backoff covers the "daemon still starting" window: start
  // the server a beat after the client begins submitting.
  ServerOptions opt;
  opt.socket_path = sock_path("late");
  opt.workers = 1;
  opt.queue_limit = 4;
  ::unlink(opt.socket_path.c_str());
  Server server(opt);
  std::thread starter([&] {
    std::this_thread::sleep_for(300ms);
    server.start();
  });
  ClientOptions c;
  c.socket_path = opt.socket_path;
  c.max_attempts = 10;
  c.backoff_base_ms = 100;
  const JobResult r = submit_job(c, make_req(kFastProgram));
  EXPECT_EQ(r.exit, 0) << r.error;
  starter.join();
  server.request_drain();
  server.join();
}

}  // namespace

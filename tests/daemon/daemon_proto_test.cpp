// Unit tests for cachierd's building blocks, no server involved: frame
// (de)framing over a socketpair, the content hasher's field delimitation,
// cache-key semantics (what is and is NOT part of the key), the version
// identity document and handshake checks, job JSON round-trips, the
// in-process job runner's exit contract, and the two-tier result cache.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cico/common/hash.hpp"
#include "cico/common/io.hpp"
#include "cico/daemon/client.hpp"
#include "cico/daemon/job.hpp"
#include "cico/daemon/protocol.hpp"
#include "cico/daemon/result_cache.hpp"

namespace {

using namespace cico;
using namespace cico::daemon;

/// Pair of connected stream sockets with RAII.
struct SockPair {
  io::Fd a, b;
  SockPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a.reset(fds[0]);
    b.reset(fds[1]);
  }
};

const char* kProgram =
    "const N = 64;\n"
    "shared real A[N];\n"
    "parallel\n"
    "  A[pid] = pid + 1;\n"
    "  barrier;\n"
    "end\n";

JobRequest make_req(const std::string& cmd) {
  JobRequest req;
  req.command = cmd;
  req.name = "unit.mp";
  req.source = kProgram;
  req.cfg.nodes = 4;
  return req;
}

// --- framing ---------------------------------------------------------------

TEST(Framing, RoundTripsAFrame) {
  SockPair sp;
  const obs::Json sent = status_frame("running");
  ASSERT_EQ(write_frame(sp.a.get(), sent), FrameStatus::Ok);
  obs::Json got;
  ASSERT_EQ(read_frame(sp.b.get(), &got), FrameStatus::Ok);
  EXPECT_EQ(got.dump_string(), sent.dump_string());
  EXPECT_EQ(frame_type(got), "status");
}

TEST(Framing, PeerCloseReadsAsClosed) {
  SockPair sp;
  sp.a.reset();
  obs::Json got;
  EXPECT_EQ(read_frame(sp.b.get(), &got), FrameStatus::Closed);
}

TEST(Framing, OversizedLengthIsProtocolError) {
  SockPair sp;
  // 0xFFFFFFFF length prefix: far above kMaxFrameBytes.
  const unsigned char hdr[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(io::write_full(sp.a.get(), hdr, 4), io::IoStatus::Ok);
  obs::Json got;
  EXPECT_THROW(read_frame(sp.b.get(), &got), ProtocolError);
}

TEST(Framing, GarbagePayloadIsProtocolError) {
  SockPair sp;
  const unsigned char hdr[4] = {3, 0, 0, 0};
  ASSERT_EQ(io::write_full(sp.a.get(), hdr, 4), io::IoStatus::Ok);
  ASSERT_EQ(io::write_full(sp.a.get(), "{{{", 3), io::IoStatus::Ok);
  obs::Json got;
  EXPECT_THROW(read_frame(sp.b.get(), &got), ProtocolError);
}

TEST(Framing, TimeoutWhenPeerStallsMidFrame) {
  SockPair sp;
  // Header promises 8 bytes; only the header arrives.  The whole-frame
  // timeout must fire instead of blocking the reader forever.
  const unsigned char hdr[4] = {8, 0, 0, 0};
  ASSERT_EQ(io::write_full(sp.a.get(), hdr, 4), io::IoStatus::Ok);
  obs::Json got;
  EXPECT_EQ(read_frame(sp.b.get(), &got, /*timeout_ms=*/50),
            FrameStatus::Timeout);
}

// --- EINTR-safe I/O helpers ------------------------------------------------

TEST(Io, FullReadAcrossPartialWrites) {
  SockPair sp;
  const std::string msg(100000, 'x');  // exceeds one socket buffer chunk
  std::thread writer([&] {
    EXPECT_EQ(io::write_full(sp.a.get(), msg.data(), msg.size()),
              io::IoStatus::Ok);
    sp.a.reset();
  });
  std::string got(msg.size(), '\0');
  EXPECT_EQ(io::read_full(sp.b.get(), got.data(), got.size()),
            io::IoStatus::Ok);
  EXPECT_EQ(got, msg);
  writer.join();
}

TEST(Io, WriteToClosedPeerIsClosedNotCrash) {
  SockPair sp;
  sp.b.reset();
  const std::string msg(1 << 20, 'y');
  EXPECT_EQ(io::write_full(sp.a.get(), msg.data(), msg.size()),
            io::IoStatus::Closed);
}

// --- content hasher --------------------------------------------------------

TEST(Hash, FieldsAreDelimited) {
  // ("a","b") and ("ab","") must hash differently: fields are
  // length-delimited, not concatenated.
  common::ContentHasher h1, h2;
  h1 << "a" << "b";
  h2 << "ab" << "";
  EXPECT_NE(h1.hex(), h2.hex());
}

TEST(Hash, DeterministicAnd32Hex) {
  common::ContentHasher h1, h2;
  h1 << "hello" << "world";
  h2 << "hello" << "world";
  EXPECT_EQ(h1.hex(), h2.hex());
  EXPECT_EQ(h1.hex().size(), 32u);
  for (char c : h1.hex()) EXPECT_TRUE(std::isxdigit(c) != 0) << c;
}

// --- cache key -------------------------------------------------------------

TEST(CacheKey, SensitiveToOutputChangingInputs) {
  const JobRequest base = make_req("run");
  JobRequest other = base;
  other.command = "lint";
  EXPECT_NE(cache_key(base), cache_key(other));
  other = base;
  other.source += " ";
  EXPECT_NE(cache_key(base), cache_key(other));
  other = base;
  other.cfg.nodes = 8;
  EXPECT_NE(cache_key(base), cache_key(other));
  other = base;
  other.cfg.faults = "drop=0.01,seed=1";
  EXPECT_NE(cache_key(base), cache_key(other));
  for (bool JobConfig::*flag :
       {&JobConfig::static_mode, &JobConfig::prefetch, &JobConfig::fix,
        &JobConfig::want_report, &JobConfig::want_events}) {
    other = base;
    other.cfg.*flag = true;
    EXPECT_NE(cache_key(base), cache_key(other));
  }
}

TEST(CacheKey, InsensitiveToHostOnlyKnobs) {
  // deadline_ms bounds host time; it must not fragment the cache.
  const JobRequest base = make_req("run");
  JobRequest other = base;
  other.cfg.deadline_ms = 1234;
  EXPECT_EQ(cache_key(base), cache_key(other));
}

// --- version handshake -----------------------------------------------------

TEST(Version, DocumentNamesEverySchema) {
  const obs::Json v = version_json();
  EXPECT_NE(v.find("version"), nullptr);
  const obs::Json* schemas = v.find("schemas");
  ASSERT_NE(schemas, nullptr);
  EXPECT_NE(schemas->find("report"), nullptr);
  EXPECT_NE(schemas->find("lint"), nullptr);
  ASSERT_NE(schemas->find("daemon_protocol"), nullptr);
  EXPECT_EQ(schemas->find("daemon_protocol")->as_u64(),
            kDaemonProtocolVersion);
}

TEST(Version, OwnHelloIsCompatible) {
  EXPECT_EQ(hello_mismatch(hello_frame()), "");
  EXPECT_EQ(hello_mismatch(hello_ok_frame()), "");
}

TEST(Version, ForeignProtocolIsRejected) {
  obs::Json schemas = obs::Json::object();
  schemas.set("daemon_protocol",
              obs::Json::number(kDaemonProtocolVersion + 1));
  obs::Json hello = obs::Json::object();
  hello.set("type", obs::Json::string("hello"));
  hello.set("schemas", std::move(schemas));
  const std::string m = hello_mismatch(hello);
  EXPECT_NE(m.find("daemon protocol"), std::string::npos) << m;
}

TEST(Version, MissingSchemasIsRejected) {
  obs::Json hello = obs::Json::object();
  hello.set("type", obs::Json::string("hello"));
  EXPECT_NE(hello_mismatch(hello), "");
}

// --- job JSON round trips --------------------------------------------------

TEST(JobJson, SubmitRoundTrips) {
  JobRequest req = make_req("run");
  req.plan_text = "plan bytes";
  req.cfg.mode = cachier::Mode::Programmer;
  req.cfg.faults = "drop=0.5,seed=9";
  req.cfg.paranoid = true;
  req.cfg.static_mode = true;
  req.cfg.prefetch = true;
  req.cfg.fix = true;
  req.cfg.want_report = true;
  req.cfg.want_events = true;
  req.cfg.deadline_ms = 777;
  const JobRequest got = parse_submit(submit_frame(req));
  EXPECT_EQ(got.command, req.command);
  EXPECT_EQ(got.name, req.name);
  EXPECT_EQ(got.source, req.source);
  EXPECT_EQ(got.plan_text, req.plan_text);
  EXPECT_EQ(got.cfg.nodes, req.cfg.nodes);
  EXPECT_EQ(got.cfg.mode, req.cfg.mode);
  EXPECT_EQ(got.cfg.faults, req.cfg.faults);
  EXPECT_EQ(got.cfg.paranoid, req.cfg.paranoid);
  EXPECT_EQ(got.cfg.static_mode, req.cfg.static_mode);
  EXPECT_EQ(got.cfg.prefetch, req.cfg.prefetch);
  EXPECT_EQ(got.cfg.fix, req.cfg.fix);
  EXPECT_EQ(got.cfg.want_report, req.cfg.want_report);
  EXPECT_EQ(got.cfg.want_events, req.cfg.want_events);
  EXPECT_EQ(got.cfg.deadline_ms, req.cfg.deadline_ms);
}

TEST(JobJson, SubmitIgnoresRetiredKeys) {
  // Older clients send config.boundary_threads and a saved "trace"; both
  // must parse and change neither the request nor its cache key.
  const JobRequest req = make_req("run");
  obs::Json frame = submit_frame(req);
  obs::Json cfg = *frame.find("config");
  cfg.set("boundary_threads", obs::Json::number(std::uint64_t{4}));
  frame.set("config", std::move(cfg));
  frame.set("trace", obs::Json::string("trace bytes"));
  const JobRequest got = parse_submit(frame);
  EXPECT_EQ(got.cfg.nodes, req.cfg.nodes);
  EXPECT_EQ(cache_key(got), cache_key(req));
}

TEST(JobJson, SubmitRejectsUnknownCommandAndBadNodes) {
  JobRequest req = make_req("frobnicate");
  EXPECT_THROW((void)parse_submit(submit_frame(req)), std::runtime_error);
  req = make_req("run");
  req.cfg.nodes = 100000;  // above the protocol's sanity bound
  EXPECT_THROW((void)parse_submit(submit_frame(req)), std::runtime_error);
}

TEST(JobJson, ResultRoundTrips) {
  JobResult res;
  res.exit = 1;
  res.cached = true;
  res.key = "abc123";
  res.out = "stdout bytes\nwith\nnewlines";
  res.report = "{\"x\": 1}";
  res.events = "{\"traceEvents\": []}";
  res.error = "";
  res.diags = {"# line one\n", "# line two\n"};
  res.host = "# host: total=0.001s\n";
  const JobResult got = parse_result(result_frame(res));
  EXPECT_EQ(got.exit, res.exit);
  EXPECT_EQ(got.cached, res.cached);
  EXPECT_EQ(got.key, res.key);
  EXPECT_EQ(got.out, res.out);
  EXPECT_EQ(got.report, res.report);
  EXPECT_EQ(got.events, res.events);
  EXPECT_EQ(got.diags, res.diags);
  EXPECT_EQ(got.host, "") << "host timing must never be serialized";
}

// --- in-process job runner -------------------------------------------------

TEST(RunJob, ParseErrorIsExitTwoNotThrow) {
  JobRequest req = make_req("run");
  req.source = "this is @@ not minipar $$\n";
  const JobResult r = run_job(req);
  EXPECT_EQ(r.exit, 2);
  EXPECT_FALSE(r.error.empty());
  EXPECT_FALSE(r.cancelled);
}

TEST(RunJob, PreCancelledComesBackCancelled) {
  std::atomic<bool> cancel{true};
  const JobResult r = run_job(make_req("run"), &cancel);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.exit, 2);
}

TEST(RunJob, AnnotateEmitsSummaryDiag) {
  const JobResult r = run_job(make_req("annotate"));
  EXPECT_EQ(r.exit, 0) << r.error;
  ASSERT_FALSE(r.diags.empty());
  EXPECT_NE(r.diags[0].find("# cachier:"), std::string::npos) << r.diags[0];
}

TEST(RunJob, PayloadsOnlyWhenAsked) {
  for (const char* cmd : {"run", "compare"}) {
    JobRequest req = make_req(cmd);
    JobResult r = run_job(req);
    EXPECT_EQ(r.exit, 0) << r.error;
    EXPECT_NE(r.out.find("execution time:"), std::string::npos) << r.out;
    EXPECT_TRUE(r.report.empty());
    EXPECT_TRUE(r.events.empty());
    EXPECT_NE(r.host.find("# host: total="), std::string::npos) << r.host;
    req.cfg.want_events = true;
    r = run_job(req);
    EXPECT_TRUE(r.report.empty());
    EXPECT_NE(r.events.find("traceEvents"), std::string::npos);
    req.cfg.want_report = true;
    r = run_job(req);
    EXPECT_NE(r.report.find("\"schema_version\""), std::string::npos);
  }
}

// --- result cache ----------------------------------------------------------

TEST(ResultCache, MemoryHitIsByteIdentical) {
  ResultCache cache;
  JobResult r;
  r.exit = 0;
  r.out = "bytes";
  r.diags = {"d1\n"};
  r.host = "# host: total=0.001s\n";
  cache.insert("k1", r);
  const auto hit = cache.lookup("k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->cached);
  EXPECT_EQ(hit->key, "k1");
  EXPECT_EQ(hit->out, r.out);
  EXPECT_EQ(hit->diags, r.diags);
  EXPECT_EQ(hit->host, "") << "host timing must never be cached";
  EXPECT_FALSE(cache.lookup("k2").has_value());
  EXPECT_EQ(cache.counters().hits, 1u);
  EXPECT_EQ(cache.counters().misses, 1u);
}

TEST(ResultCache, RefusesCancelledResults) {
  ResultCache cache;
  JobResult r;
  r.cancelled = true;
  cache.insert("k1", r);
  EXPECT_FALSE(cache.lookup("k1").has_value());
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache("", /*max_entries=*/2);
  JobResult r;
  cache.insert("k1", r);
  cache.insert("k2", r);
  (void)cache.lookup("k1");  // k1 is now MRU; k2 is the victim
  cache.insert("k3", r);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup("k1").has_value());
  EXPECT_FALSE(cache.lookup("k2").has_value());
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(ResultCache, DiskTierSurvivesMemoryEvictionAndRestart) {
  const std::string dir = ::testing::TempDir() + "cachier_cache_ut";
  std::filesystem::remove_all(dir);
  const std::string key(32, 'a');
  {
    ResultCache cache(dir, /*max_entries=*/1);
    JobResult r;
    r.out = "persisted";
    cache.insert(key, r);
    cache.insert(std::string(32, 'b'), r);  // evicts `key` from memory
    const auto hit = cache.lookup(key);     // reloaded from disk
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->out, "persisted");
    EXPECT_GE(cache.counters().disk_loads, 1u);
    cache.flush_index();
  }
  {
    ResultCache fresh(dir);  // a restarted daemon sees the file tier
    const auto hit = fresh.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->out, "persisted");
  }
  // flush_index wrote a parseable index naming both keys.
  std::ifstream in(dir + "/index.json");
  ASSERT_TRUE(in.is_open());
  std::ostringstream ss;
  ss << in.rdbuf();
  const obs::Json idx = obs::Json::parse(ss.str());
  ASSERT_NE(idx.find("entries"), nullptr);
  EXPECT_EQ(idx.find("entry_count")->as_u64(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, LargePayloadsDedupeThroughArtifactStore) {
  // Payloads >= kInlineMax live in the content-addressed store tier, so
  // two keys whose jobs produced the same bytes share one object -- and
  // both still read back exactly.
  const std::string dir = ::testing::TempDir() + "cachier_cache_store";
  std::filesystem::remove_all(dir);
  {
    ResultCache cache(dir, /*max_entries=*/1);
    JobResult r;
    r.out = std::string(4096, 'x') + "payload";
    r.report = "{\"big\": \"" + std::string(512, 'r') + "\"}";
    r.events = std::string(256, 'e');
    cache.insert(std::string(32, 'a'), r);
    cache.insert(std::string(32, 'b'), r);  // same bytes, second key
    ASSERT_NE(cache.artifact_store(), nullptr);
    // One object per distinct payload, not per key.
    const auto hit = cache.lookup(std::string(32, 'a'));  // disk reload
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->out, r.out);
    EXPECT_EQ(hit->report, r.report);
    EXPECT_EQ(hit->events, r.events);
  }
  {
    ResultCache fresh(dir);  // restart: refs resolve from the store tier
    const auto hit = fresh.lookup(std::string(32, 'b'));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->out.substr(4096), "payload");
  }
  // The entry file itself carries a hash reference, not the bytes.
  std::ifstream in(dir + "/" + std::string(32, 'a') + ".json");
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("stdout_ref"), std::string::npos);
  EXPECT_NE(ss.str().find("events_ref"), std::string::npos);
  EXPECT_EQ(ss.str().find("payload"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, MissingStoreObjectIsAMiss) {
  const std::string dir = ::testing::TempDir() + "cachier_cache_gone";
  std::filesystem::remove_all(dir);
  const std::string key(32, 'd');
  {
    ResultCache cache(dir, /*max_entries=*/1);
    JobResult r;
    r.out = std::string(4096, 'y');
    cache.insert(key, r);
  }
  std::filesystem::remove_all(dir + "/store/objects");
  ResultCache fresh(dir);
  EXPECT_FALSE(fresh.lookup(key).has_value());
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, CorruptDiskFileIsAMiss) {
  const std::string dir = ::testing::TempDir() + "cachier_cache_corrupt";
  std::filesystem::remove_all(dir);
  ResultCache cache(dir);
  const std::string key(32, 'c');
  {
    std::ofstream out(dir + "/" + key + ".json");
    out << "{ half a json";
  }
  EXPECT_FALSE(cache.lookup(key).has_value());
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, ConcurrentLookupsAndInsertsStayExact) {
  // Disk I/O runs outside the cache lock, so several workers may read,
  // write and reload one key at once.  A memory tier smaller than the key
  // set forces reloads from the file tier while other threads rewrite it.
  // Every round re-inserts, so writers of one key overlap all the time.
  const std::string dir = ::testing::TempDir() + "cachier_cache_concurrent";
  std::filesystem::remove_all(dir);
  constexpr int kThreads = 4, kKeys = 3, kRounds = 40;
  const auto key_of = [](int k) { return std::string(32, "0123456789"[k]); };
  const auto result_of = [](int k) {
    JobResult r;
    r.exit = k % 3;
    r.out = std::string(64 * 1024, static_cast<char>('a' + k)) + "#" +
            std::to_string(k);
    r.report = "{\"k\": " + std::to_string(k) + std::string(1024, ' ') + "}";
    r.events = std::string(300 + k, 'e');
    // Diagnostics stay inline, so the entry file itself is large too.
    r.diags.assign(2000, "diag " + std::to_string(k) + "\n");
    return r;
  };
  std::atomic<int> mismatches{0};
  {
    ResultCache cache(dir, /*max_entries=*/2);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < kRounds; ++i) {
          const int k = (t + i) % kKeys;
          const JobResult want = result_of(k);
          if (const auto hit = cache.lookup(key_of(k))) {
            if (hit->out != want.out || hit->report != want.report ||
                hit->events != want.events || hit->diags != want.diags ||
                hit->exit != want.exit || hit->key != key_of(k)) {
              ++mismatches;
            }
          }
          cache.insert(key_of(k), want);
        }
      });
    }
    for (auto& w : workers) w.join();
    const ResultCache::Counters c = cache.counters();
    EXPECT_EQ(c.hits + c.misses, std::uint64_t{kThreads * kRounds});
    EXPECT_EQ(c.inserts, std::uint64_t{kThreads * kRounds});
    EXPECT_GT(c.disk_loads, 0u);
  }
  EXPECT_EQ(mismatches.load(), 0);
  // Every write renamed its own temp file into place; none is left over.
  for (const auto& de : std::filesystem::recursive_directory_iterator(dir)) {
    EXPECT_EQ(de.path().filename().string().find(".tmp"), std::string::npos)
        << de.path();
  }
  ResultCache fresh(dir);  // the file tier holds every key, intact
  for (int k = 0; k < kKeys; ++k) {
    const auto hit = fresh.lookup(key_of(k));
    ASSERT_TRUE(hit.has_value()) << k;
    EXPECT_EQ(hit->out, result_of(k).out) << k;
  }
  std::filesystem::remove_all(dir);
}

TEST(Backoff, ExponentialWithCap) {
  ClientOptions opt;
  opt.backoff_base_ms = 50;
  opt.backoff_cap_ms = 2000;
  EXPECT_EQ(backoff_delay_ms(opt, 0), 50u);
  EXPECT_EQ(backoff_delay_ms(opt, 1), 100u);
  EXPECT_EQ(backoff_delay_ms(opt, 2), 200u);
  EXPECT_EQ(backoff_delay_ms(opt, 10), 2000u);  // capped
  EXPECT_EQ(backoff_delay_ms(opt, 100), 2000u);  // shift-overflow guarded
}

}  // namespace

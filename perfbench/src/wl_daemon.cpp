// `daemon` workload: an in-process daemon::Server on a private socket with
// a disk cache directory, driven by four closed-loop client threads through
// daemon::submit_job -- the path `cachier --daemon` takes.
//
// Jobs are annotate / run / lint / plan over the `pipeline` programs.  Set-up
// pre-warms the hot set (every program x command).  About three in four
// timed jobs repeat a hot key; the rest are fresh: the same program with a
// distinct trailing comment, so the cache key is new but the output must
// equal the hot key's.  The memory tier holds fewer entries than the hot
// set, so some hits reload from the disk/store tier.  Oracles: every hit is
// byte-identical (stdout, exit) to the first result for its key, and every
// fresh job reproduces the hot result of its program and command.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <thread>

#include "cico/common/hash.hpp"
#include "cico/common/rng.hpp"
#include "cico/daemon/client.hpp"
#include "cico/daemon/server.hpp"
#include "inputs.hpp"
#include "measure.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using namespace cico;

constexpr const char* kCommands[] = {"annotate", "run", "lint", "plan"};
constexpr std::size_t kClients = 4;
/// Draws of each bundled app: the hot set is 14 programs x 4 commands.
constexpr std::size_t kVariants = 2;
/// Memory-tier bound, below the hot-set size.
constexpr std::size_t kMemEntries = 32;
/// One in kFreshOneIn timed jobs is fresh.
constexpr std::uint64_t kFreshOneIn = 4;
/// Completions per throughput batch (median over batches is reported).
constexpr std::size_t kBatch = 200;

struct Key {
  std::size_t app = 0;
  std::size_t cmd = 0;
};

class DaemonWorkload final : public Workload {
 public:
  explicit DaemonWorkload(Args a) : args_(std::move(a)) {}
  ~DaemonWorkload() override { teardown(); }

  void setup() override {
    apps_ = scaled_apps(args_.seed, kVariants);
    cache_dir_ = args_.work_dir + "/cache";
    daemon::ServerOptions opt;
    opt.socket_path = args_.work_dir + "/d.sock";
    opt.workers = static_cast<std::uint32_t>(
        std::min<unsigned>(4, std::max(1U, std::thread::hardware_concurrency())));
    opt.queue_limit = 16;
    opt.cache_dir = cache_dir_;
    opt.cache_entries = kMemEntries;
    server_ = std::make_unique<daemon::Server>(opt);
    server_->start();
    copt_.socket_path = opt.socket_path;
    copt_.max_attempts = 20;

    // Pre-warm the hot set from kClients threads.
    std::vector<Key> keys;
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      for (std::size_t c = 0; c < std::size(kCommands); ++c) keys.push_back({a, c});
    }
    hot_.assign(keys.size(), std::string());
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kClients; ++t) {
      pool.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < keys.size();) {
          try {
            const daemon::JobResult r =
                daemon::submit_job(copt_, request(keys[i], 0));
            hot_[i] = flatten(r);
            if (r.exit == 2) failed = true;
          } catch (const std::exception& e) {
            std::cerr << "daemon: warm-up: " << e.what() << "\n";
            failed = true;
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
    if (failed) throw std::runtime_error("daemon: warm-up job failed");
  }

  void teardown() override {
    if (server_ != nullptr) {
      server_->request_drain();
      server_->join();
      server_.reset();
    }
    std::error_code ec;
    std::filesystem::remove_all(cache_dir_, ec);
  }

  bool self_check(std::vector<std::string>& notes) override {
    // A result with altered bytes must fail the hit oracle.
    daemon::JobResult r = daemon::submit_job(copt_, request({0, 0}, 0));
    r.out += " ";
    const bool caught = flatten(r) != hot_[0];
    notes.push_back(std::string("oracle self-check (hit with one byte "
                                "appended): ") +
                    (caught ? "caught" : "MISSED"));
    return caught;
  }

  Phase measure(double seconds) override {
    Phase ph;
    const daemon::Server::Counters s0 = server_->counters();
    const daemon::ResultCache::Counters c0 = server_->cache().counters();
    const auto t0 = Clock::now();
    const Rusage r0 = Rusage::now();
    std::vector<std::thread> pool;
    std::vector<Client> clients(kClients);
    ++phases_;
    for (std::size_t t = 0; t < kClients; ++t) {
      pool.emplace_back([&, t] { drive(clients[t], t, t0, seconds); });
    }
    for (std::thread& t : pool) t.join();
    ph.wall_s = ms_since(t0) / 1e3;
    ph.ru = Rusage::now() - r0;
    const daemon::Server::Counters s1 = server_->counters();
    const daemon::ResultCache::Counters c1 = server_->cache().counters();

    double hit_ms = 0;
    double miss_ms = 0;
    double wait_ms = 0;
    double hits = 0;
    std::vector<double> done_at{0.0};
    for (const Client& c : clients) {
      ph.op_ms.insert(ph.op_ms.end(), c.op_ms.begin(), c.op_ms.end());
      done_at.insert(done_at.end(), c.done_at_ms.begin(), c.done_at_ms.end());
      ph.attempted += c.attempted;
      ph.failed += c.failed;
      hit_ms += c.hit_ms;
      miss_ms += c.miss_ms;
      wait_ms += c.wait_ms;
      hits += c.hits;
      if (c.failed != 0) ok_ = false;
    }
    const double done = static_cast<double>(ph.op_ms.size());
    // Batches of kBatch consecutive completions across all clients.
    std::sort(done_at.begin(), done_at.end());
    for (std::size_t i = kBatch; i < done_at.size(); i += kBatch) {
      ph.batch_rate.push_back(kBatch * 1e3 / (done_at[i] - done_at[i - kBatch]));
    }
    ph.batch_cpu_ms.push_back((ph.ru.user_ms + ph.ru.sys_ms) / done);
    ph.layer_values["daemon.service_hit_ms"] = hit_ms / std::max(1.0, hits);
    ph.layer_values["daemon.service_miss_ms"] =
        miss_ms / std::max(1.0, done - hits);
    ph.layer_values["daemon.queue_wait_ms"] = wait_ms / std::max(1.0, done);
    ph.layer_values["daemon.hit_ratio"] =
        static_cast<double>(s1.cache_hits - s0.cache_hits) /
        std::max<double>(1, static_cast<double>(s1.completed - s0.completed));
    ph.layer_values["daemon.disk_load_ratio"] =
        static_cast<double>(c1.disk_loads - c0.disk_loads) /
        std::max<double>(1, static_cast<double>(c1.hits - c0.hits));
    ph.layer_values["daemon.shed_retries"] =
        static_cast<double>(s1.shed - s0.shed);
    last_hits_ = hits;
    return ph;
  }

  std::map<std::string, double> counts() override { return {}; }

  std::string digest() override {
    common::ContentHasher h;
    for (const std::string& r : hot_) h << r;
    return h.hex();
  }

  bool correct() override { return ok_; }

  // One CPU, like the other workloads: spread over four CPUs of a shared
  // virtual machine, throughput followed how much CPU the host granted
  // and halved within minutes.  Four clients and four workers on one CPU
  // still queue and contend for the cache.
  [[nodiscard]] unsigned cpus() const override { return 1; }

  void describe(const Phase& p, std::vector<std::string>& out) override {
    std::ostringstream os;
    os << "jobs_per_s " << static_cast<double>(p.op_ms.size()) / p.wall_s
       << " 1/s (" << kClients << " closed-loop clients)\n"
       << "job_ms_p50 " << percentile(p.op_ms, 0.5) << " ms, job_ms_p99 "
       << percentile(p.op_ms, 0.99) << " ms (" << p.op_ms.size()
       << " samples, " << last_hits_ << " cache hits)\n"
       << "hit_ratio " << p.layer_values.at("daemon.hit_ratio")
       << ", disk_load_ratio " << p.layer_values.at("daemon.disk_load_ratio")
       << ", shed " << p.layer_values.at("daemon.shed_retries");
    out.push_back(os.str());
  }

 private:
  struct Client {
    std::vector<double> op_ms;
    std::vector<double> done_at_ms;  ///< completion times since phase start
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double hits = 0;
    double hit_ms = 0;
    double miss_ms = 0;
    double wait_ms = 0;
  };

  /// Job for `k`; rev != 0 appends a comment, which changes the cache key
  /// but not the output (comments are not part of any result).
  [[nodiscard]] daemon::JobRequest request(const Key& k,
                                           std::uint64_t rev) const {
    daemon::JobRequest req;
    req.command = kCommands[k.cmd];
    req.name = "prog" + std::to_string(k.app) + ".mp";
    req.source = apps_[k.app].source;
    if (rev != 0) req.source += "# rev " + std::to_string(rev) + "\n";
    req.cfg.nodes = apps_[k.app].nodes;
    return req;
  }

  static std::string flatten(const daemon::JobResult& r) {
    return r.out + '\x1f' + std::to_string(r.exit);
  }

  void drive(Client& c, std::size_t thread, Clock::time_point t0,
             double seconds) {
    Rng rng(args_.seed * 1000003 + thread * 7919 + phases_ * 104729);
    const std::size_t per_app = std::size(kCommands);
    while (ms_since(t0) < seconds * 1e3) {
      const std::size_t hot = rng.below(hot_.size());
      const Key k{hot / per_app, hot % per_app};
      const bool fresh = rng.below(kFreshOneIn) == 0;
      const std::uint64_t id = ++job_seq_;
      Tracer::set_op(id);
      Clock::time_point queued{};
      double wait = 0;
      daemon::ClientOptions copt = copt_;
      copt.on_status = [&](const std::string& state) {
        if (state == "queued") queued = Clock::now();
        else if (queued != Clock::time_point{}) wait = ms_since(queued);
      };
      ++c.attempted;
      const auto ts = Clock::now();
      try {
        Span op("bench.op");
        daemon::JobResult r;
        {
          Span s("daemon.submit");
          r = daemon::submit_job(copt, request(k, fresh ? id : 0));
        }
        const double ms = ms_since(ts);
        // Hits and fresh runs alike must reproduce the warm-up bytes.
        if (flatten(r) != hot_[hot] || r.cached == fresh) {
          std::cerr << "daemon: job " << id << " (" << kCommands[k.cmd]
                    << ", " << (fresh ? "fresh" : "hot")
                    << "): result differs from the first result for its key\n";
          ++c.failed;
          continue;
        }
        c.op_ms.push_back(ms);
        c.done_at_ms.push_back(ms_since(t0));
        c.wait_ms += wait;
        if (r.cached) {
          c.hits += 1;
          c.hit_ms += ms;
        } else {
          c.miss_ms += ms;
        }
      } catch (const std::exception& e) {
        std::cerr << "daemon: job " << id << ": " << e.what() << "\n";
        ++c.failed;
      }
    }
  }

  Args args_;
  std::vector<AppProgram> apps_;
  std::string cache_dir_;
  std::unique_ptr<daemon::Server> server_;
  daemon::ClientOptions copt_;
  std::vector<std::string> hot_;  ///< first result per hot key
  std::atomic<std::uint64_t> job_seq_{0};
  std::uint64_t phases_ = 0;  ///< measure() calls so far (seeds the mix)
  double last_hits_ = 0;
  bool ok_ = true;
};

}  // namespace

std::unique_ptr<Workload> make_daemon(const Args& a) {
  return std::make_unique<DaemonWorkload>(a);
}

}  // namespace perfbench

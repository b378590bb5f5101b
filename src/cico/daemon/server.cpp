#include "cico/daemon/server.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "cico/daemon/protocol.hpp"

namespace cico::daemon {

namespace {

/// Binds a listening Unix-domain socket at `path`.  A stale socket file
/// (crashed daemon) is detected by a probe connect: ECONNREFUSED means
/// nobody is home and the file is replaced; a successful connect means
/// the address is actively served and binding must fail.
io::Fd bind_unix_listener(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  if (::access(path.c_str(), F_OK) == 0) {
    io::Fd probe(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (probe.valid() &&
        ::connect(probe.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      throw std::runtime_error("socket already served by a live daemon: " +
                               path);
    }
    ::unlink(path.c_str());
  }

  io::Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw std::runtime_error("bind " + path + ": " + std::strerror(errno));
  }
  if (::listen(fd.get(), 64) != 0) {
    throw std::runtime_error("listen " + path + ": " + std::strerror(errno));
  }
  return fd;
}

/// Runs the calling thread under SCHED_BATCH while in scope, then restores
/// its policy.  A fresh job is seconds of CPU-bound simulation; as a batch
/// thread it yields the CPU to the sub-millisecond cache-hit replies of the
/// other workers on a busy host.  Only a SCHED_OTHER thread is switched,
/// and a refused switch leaves the policy as it was.
class BatchScheduling {
 public:
  BatchScheduling() {
#ifdef SCHED_BATCH
    if (::pthread_getschedparam(::pthread_self(), &policy_, &param_) != 0 ||
        policy_ != SCHED_OTHER) {
      return;
    }
    const sched_param batch{};
    active_ =
        ::pthread_setschedparam(::pthread_self(), SCHED_BATCH, &batch) == 0;
#endif
  }
  ~BatchScheduling() {
    if (active_) ::pthread_setschedparam(::pthread_self(), policy_, &param_);
  }
  BatchScheduling(const BatchScheduling&) = delete;
  BatchScheduling& operator=(const BatchScheduling&) = delete;

 private:
  bool active_ = false;
  int policy_ = 0;
  sched_param param_{};
};

/// A stalled-but-open client must not pin a worker forever on write(2);
/// with a send timeout the blocked write fails (EAGAIN), write_frame
/// throws, and try_send below reports the client as unreachable.
void set_send_timeout(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

/// write_frame wrapper that treats every delivery problem -- peer gone,
/// send timeout, protocol error -- as "client unreachable" (false).  The
/// daemon must never die because one client is misbehaving.
bool try_send(int fd, const obs::Json& frame) {
  try {
    return write_frame(fd, frame) == FrameStatus::Ok;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

Server::Server(ServerOptions opt)
    : opt_(std::move(opt)), cache_(opt_.cache_dir, opt_.cache_entries) {}

Server::~Server() {
  if (started_ && !joined_) {
    request_drain();
    join();
  }
}

void Server::start() {
  if (started_) throw std::logic_error("Server::start called twice");
  // A client that disappears mid-write must surface as EPIPE, not kill
  // the process.
  std::signal(SIGPIPE, SIG_IGN);

  listen_fd_ = bind_unix_listener(opt_.socket_path);

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  wake_r_ = io::Fd(pipefd[0]);
  wake_w_ = io::Fd(pipefd[1]);

  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
  for (std::uint32_t i = 0; i < std::max(1u, opt_.workers); ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  monitor_ = std::thread([this] { monitor_loop(); });
  log("listening on " + opt_.socket_path);
}

void Server::request_drain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    drain_start_ = std::chrono::steady_clock::now();
  }
  // Wake the accept loop's poll; the byte's value is irrelevant.
  const char b = 'q';
  (void)io::write_full(wake_w_.get(), &b, 1);
  cv_.notify_all();
  log("drain requested");
}

void Server::join() {
  if (!started_ || joined_) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  // Connection threads are bounded by the handshake/submit timeouts;
  // wait for the last of them so no thread outlives `this`.
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return conn_live_ == 0; });
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  monitor_stop_.store(true, std::memory_order_release);
  if (monitor_.joinable()) monitor_.join();
  cache_.flush_index();
  ::unlink(opt_.socket_path.c_str());
  joined_ = true;
  log("drained: " + std::to_string(c_completed_.load()) + " jobs served, " +
      std::to_string(c_cache_hits_.load()) + " cache hits, " +
      std::to_string(c_shed_.load()) + " shed");
}

void Server::accept_loop() {
  for (;;) {
    struct pollfd pfds[2];
    pfds[0] = {listen_fd_.get(), POLLIN, 0};
    pfds[1] = {wake_r_.get(), POLLIN, 0};
    int r;
    do {
      r = ::poll(pfds, 2, -1);
    } while (r < 0 && errno == EINTR);
    if (r < 0) break;
    if ((pfds[1].revents & POLLIN) != 0 || draining()) break;
    if ((pfds[0].revents & POLLIN) == 0) continue;

    int cfd;
    do {
      cfd = ::accept(listen_fd_.get(), nullptr, nullptr);
    } while (cfd < 0 && errno == EINTR);
    if (cfd < 0) {
      if (errno == EMFILE || errno == ENFILE) continue;  // shed by default
      if (draining()) break;
      continue;
    }
    c_connections_.fetch_add(1, std::memory_order_relaxed);
    set_send_timeout(cfd, 30);
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++conn_live_;
    }
    // Detached with a live-count the join barrier waits on: a slow
    // handshake must not head-of-line-block new connections, and the
    // timeouts bound each thread's life.
    std::thread([this, cfd] {
      connection(io::Fd(cfd));
      std::lock_guard<std::mutex> lk(mu_);
      --conn_live_;
      cv_.notify_all();
    }).detach();
  }
  // Stop accepting immediately; the socket file disappears in join().
  listen_fd_.reset();
}

void Server::connection(io::Fd fd) {
  const int timeout = static_cast<int>(opt_.handshake_timeout_ms);
  try {
    obs::Json hello;
    if (read_frame(fd.get(), &hello, timeout) != FrameStatus::Ok) return;
    if (frame_type(hello) != "hello") {
      (void)try_send(fd.get(),
                     error_frame("bad_request", "expected a hello frame"));
      c_bad_requests_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (const std::string m = hello_mismatch(hello); !m.empty()) {
      (void)try_send(fd.get(), error_frame("version_mismatch", m));
      c_handshake_rejects_.fetch_add(1, std::memory_order_relaxed);
      log("handshake rejected: " + m);
      return;
    }
    if (!try_send(fd.get(), hello_ok_frame())) return;

    obs::Json submit;
    if (read_frame(fd.get(), &submit, timeout) != FrameStatus::Ok) return;
    if (frame_type(submit) != "submit") {
      (void)try_send(fd.get(),
                     error_frame("bad_request", "expected a submit frame"));
      c_bad_requests_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    auto job = std::make_shared<Job>();
    try {
      job->req = parse_submit(submit);
    } catch (const std::exception& e) {
      (void)try_send(fd.get(), error_frame("bad_request", e.what()));
      c_bad_requests_.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    std::uint64_t deadline_ms = job->req.cfg.deadline_ms;
    if (deadline_ms == 0) deadline_ms = opt_.default_deadline_ms;
    if (deadline_ms != 0) {
      job->has_deadline = true;
      job->deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(deadline_ms);
    }

    // Admission: reserve a queue slot under the lock, send "queued" from
    // THIS thread while the job is still invisible to workers (a single
    // writer per fd at any moment -- otherwise a worker's "running" frame
    // could interleave bytes with ours), then publish the job.
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (draining()) {
        (void)try_send(fd.get(),
                       error_frame("draining", "daemon is shutting down"));
        return;
      }
      if (queue_.size() + queue_reserved_ >= opt_.queue_limit) {
        // Explicit backpressure: the client is told when to come back
        // instead of being queued without bound (or hung).
        (void)try_send(fd.get(), retry_after_frame(opt_.retry_after_ms,
                                                   "queue_full"));
        c_shed_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      ++queue_reserved_;
    }
    const bool queued_sent = try_send(fd.get(), status_frame("queued"));
    bool shutting_down = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      --queue_reserved_;
      if (!queued_sent) return;  // client vanished between submit and ack
      // Re-check under the SAME lock that publishes: a drain that raced
      // in since the admission check above has already woken the workers,
      // and a job pushed now would sit in the queue forever with its
      // client blocked on a result that never comes.
      if (draining()) {
        shutting_down = true;
      } else {
        job->fd = std::move(fd);
        queue_.push_back(job);
        c_submitted_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (shutting_down) {
      (void)try_send(fd.get(),
                     error_frame("draining", "daemon is shutting down"));
      return;
    }
    cv_.notify_all();
  } catch (const std::exception& e) {
    // Framing garbage, oversized lengths, hard I/O errors: drop the
    // connection; the daemon itself is unaffected.
    c_bad_requests_.fetch_add(1, std::memory_order_relaxed);
    log(std::string("connection error: ") + e.what());
  }
}

void Server::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return !queue_.empty() || draining(); });
      if (queue_.empty()) {
        if (draining()) return;
        continue;
      }
      job = queue_.front();
      queue_.pop_front();
      running_.push_back(job);
    }
    serve(job);
    {
      std::lock_guard<std::mutex> lk(mu_);
      running_.erase(std::find(running_.begin(), running_.end(), job));
    }
    cv_.notify_all();
  }
}

void Server::serve(const std::shared_ptr<Job>& job) {
  const int fd = job->fd.get();
  const std::string key = cache_key(job->req);

  // Sends the diagnostics, then the result frame; `ok` false means an
  // earlier send already failed.
  const auto reply = [&](const JobResult& res, bool ok) {
    for (const std::string& d : res.diags) {
      ok = ok && try_send(fd, diag_frame(d));
    }
    ok = ok && try_send(fd, result_frame(res));
    if (!ok) c_disconnects_.fetch_add(1, std::memory_order_relaxed);
    c_completed_.fetch_add(1, std::memory_order_relaxed);
  };

  if (std::optional<JobResult> hit = cache_.lookup(key)) {
    c_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    reply(*hit, try_send(fd, status_frame("cached")));
    log("cache hit " + key.substr(0, 12) + " (" + job->req.command + ")");
    return;
  }

  if (!try_send(fd, status_frame("running"))) {
    // The client is already gone; running the job would burn a slot for
    // nobody, and the cache gains little from speculative fills.
    c_disconnects_.fetch_add(1, std::memory_order_relaxed);
    c_cancelled_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  JobResult res;
  {
    const BatchScheduling batch;  // fresh jobs yield to cache hits
    res = run_job(job->req, &job->cancel);
  }
  res.key = key;

  if (res.cancelled) {
    c_cancelled_.fetch_add(1, std::memory_order_relaxed);
    if (job->disconnected.load(std::memory_order_relaxed)) {
      c_disconnects_.fetch_add(1, std::memory_order_relaxed);
    } else {
      res.error = job->has_deadline &&
                          std::chrono::steady_clock::now() >= job->deadline
                      ? "job deadline exceeded"
                      : res.error;
      (void)try_send(fd, result_frame(res));
    }
    log("job cancelled (" + job->req.command + ")");
    return;
  }

  cache_.insert(key, res);
  if (res.exit == 2) c_failed_.fetch_add(1, std::memory_order_relaxed);
  reply(res, true);
  log("job done (" + job->req.command + ") exit=" + std::to_string(res.exit) +
      " key=" + key.substr(0, 12));
}

void Server::monitor_loop() {
  while (!monitor_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opt_.monitor_tick_ms));
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lk(mu_);
    const bool drain_expired =
        draining() && drain_start_ + std::chrono::milliseconds(
                                         opt_.drain_grace_ms) <= now;
    for (const std::shared_ptr<Job>& j : running_) {
      if (j->cancel.load(std::memory_order_relaxed)) continue;
      if (j->has_deadline && now >= j->deadline) {
        j->cancel.store(true, std::memory_order_relaxed);
        continue;
      }
      if (drain_expired) {
        j->cancel.store(true, std::memory_order_relaxed);
        continue;
      }
      if (io::peer_hung_up(j->fd.get())) {
        j->disconnected.store(true, std::memory_order_relaxed);
        j->cancel.store(true, std::memory_order_relaxed);
      }
    }
  }
}

Server::Counters Server::counters() const {
  Counters c;
  c.connections = c_connections_.load(std::memory_order_relaxed);
  c.handshake_rejects = c_handshake_rejects_.load(std::memory_order_relaxed);
  c.bad_requests = c_bad_requests_.load(std::memory_order_relaxed);
  c.submitted = c_submitted_.load(std::memory_order_relaxed);
  c.shed = c_shed_.load(std::memory_order_relaxed);
  c.completed = c_completed_.load(std::memory_order_relaxed);
  c.cache_hits = c_cache_hits_.load(std::memory_order_relaxed);
  c.failed = c_failed_.load(std::memory_order_relaxed);
  c.cancelled = c_cancelled_.load(std::memory_order_relaxed);
  c.disconnects = c_disconnects_.load(std::memory_order_relaxed);
  return c;
}

std::size_t Server::jobs_in_flight() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size() + running_.size();
}

void Server::log(const std::string& line) const {
  if (!opt_.verbose) return;
  std::fprintf(stderr, "cachierd: %s\n", line.c_str());
}

}  // namespace cico::daemon

// cachierd -- the long-running annotation/simulation service.
//
//   cachierd --socket /run/cachierd.sock [--workers N] [--queue N]
//            [--cache-dir dir] [--cache-entries N] [--deadline-ms N]
//            [--drain-grace-ms N] [--verbose]
//
// Accepts jobs from concurrent `cachier --daemon` clients over a
// Unix-domain socket (docs/cachierd.md), runs them on a worker pool with
// a bounded queue (full queue => clients are shed with a retry_after
// hint, never hung), enforces per-job wall-clock deadlines via
// cooperative cancellation, and serves repeated requests from a
// content-addressed result cache.
//
// SIGTERM / SIGINT begin a graceful drain: stop accepting, finish the
// queue, cancel whatever still runs after the drain grace, flush the
// cache index, remove the socket file, exit 0.  A second signal during
// the drain exits immediately (the operator's escape hatch).
//
// Exit status: 0 clean drain, 1 usage errors, 2 startup failures (bad
// socket path, cache directory not writable, address actively served).
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "cico/common/parse_num.hpp"
#include "cico/daemon/server.hpp"

using namespace cico;

namespace {

volatile std::sig_atomic_t g_signals = 0;

void on_signal(int) {
  g_signals = g_signals + 1;
  if (g_signals > 1) std::_Exit(130);  // second signal: immediate exit
}

void usage() {
  std::fprintf(
      stderr,
      "usage: cachierd --socket path [--workers N] [--queue N]\n"
      "                [--cache-dir dir] [--cache-entries N]\n"
      "                [--deadline-ms N] [--drain-grace-ms N] [--verbose]\n");
}

}  // namespace

int main(int argc, char** argv) {
  daemon::ServerOptions opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--socket" && i + 1 < argc) {
        opt.socket_path = argv[++i];
      } else if (arg == "--workers" && i + 1 < argc) {
        opt.workers = parse_num<std::uint32_t>(argv[++i], "--workers value");
      } else if (arg == "--queue" && i + 1 < argc) {
        opt.queue_limit = parse_num<std::uint32_t>(argv[++i], "--queue value");
      } else if (arg == "--cache-dir" && i + 1 < argc) {
        opt.cache_dir = argv[++i];
      } else if (arg == "--cache-entries" && i + 1 < argc) {
        opt.cache_entries =
            parse_num<std::uint32_t>(argv[++i], "--cache-entries value");
      } else if (arg == "--deadline-ms" && i + 1 < argc) {
        opt.default_deadline_ms =
            parse_num<std::uint64_t>(argv[++i], "--deadline-ms value");
      } else if (arg == "--drain-grace-ms" && i + 1 < argc) {
        opt.drain_grace_ms =
            parse_num<std::uint64_t>(argv[++i], "--drain-grace-ms value");
      } else if (arg == "--verbose") {
        opt.verbose = true;
      } else {
        usage();
        return 1;
      }
    }
    if (opt.socket_path.empty() || opt.workers == 0 || opt.queue_limit == 0) {
      usage();
      return 1;
    }

    daemon::Server server(opt);
    server.start();
    std::fprintf(stderr, "cachierd: serving on %s (%u workers, queue %u%s)\n",
                 opt.socket_path.c_str(), opt.workers, opt.queue_limit,
                 opt.cache_dir.empty()
                     ? ", memory cache"
                     : (", cache " + opt.cache_dir).c_str());

    // sigaction without SA_RESTART so the pause() below wakes on signal.
    struct sigaction sa{};
    sa.sa_handler = on_signal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    while (g_signals == 0) ::pause();

    std::fprintf(stderr, "cachierd: draining...\n");
    server.request_drain();
    server.join();
    const daemon::Server::Counters c = server.counters();
    std::fprintf(stderr,
                 "cachierd: drained (conns=%llu jobs=%llu cached=%llu "
                 "shed=%llu failed=%llu cancelled=%llu)\n",
                 static_cast<unsigned long long>(c.connections),
                 static_cast<unsigned long long>(c.completed),
                 static_cast<unsigned long long>(c.cache_hits),
                 static_cast<unsigned long long>(c.shed),
                 static_cast<unsigned long long>(c.failed),
                 static_cast<unsigned long long>(c.cancelled));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cachierd: error: %s\n", e.what());
    return 2;
  }
}

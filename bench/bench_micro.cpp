// Micro-benchmarks (google-benchmark) for the substrate hot paths: cache
// lookup/insert, Dir1SW service, trace ingestion and epoch-set analysis.
// These bound the simulator's own throughput, not the paper's results.
//
// The kern kernel section additionally hand-times every Ops entry point at
// the scalar level vs the best dispatch level and writes the comparison --
// including a byte-identity self-check across levels -- as JSON:
//
//   bench_micro --kernel-json BENCH_micro.json [--kernel-only]
//
// Exit 1 if any level disagrees with scalar (the CI bench self-check
// asserts byte_identical=true).  --kernel-only skips the google-benchmark
// suite for fast CI runs; remaining flags pass through to the library.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "cico/cachier/cachier.hpp"
#include "cico/kern/kernels.hpp"
#include "cico/mem/cache.hpp"
#include "cico/net/network.hpp"
#include "cico/proto/dir1sw.hpp"
#include "cico/sim/machine.hpp"

namespace {

using namespace cico;

void BM_CacheHit(benchmark::State& state) {
  mem::CacheGeometry g;
  mem::Cache c(g);
  for (Block b = 0; b < 1024; ++b) c.insert(b, mem::LineState::Shared);
  Block b = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.state_of(b));
    c.touch(b);
    b = (b + 7) % 1024;
  }
}
BENCHMARK(BM_CacheHit);

void BM_CacheInsertEvict(benchmark::State& state) {
  mem::CacheGeometry g;
  g.size_bytes = 4096;
  mem::Cache c(g);
  Block b = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.insert(b++, mem::LineState::Exclusive));
  }
}
BENCHMARK(BM_CacheInsertEvict);

class NullCaches : public proto::CacheControl {
 public:
  [[nodiscard]] mem::LineState peek(NodeId, Block) const override {
    return mem::LineState::Invalid;
  }
  void invalidate(NodeId, Block) override {}
  void downgrade(NodeId, Block) override {}
  void push_shared(NodeId, Block) override {}
};

void BM_Dir1SWHardwareFill(benchmark::State& state) {
  CostModel cost;
  Stats stats(32);
  net::Network net(cost, stats);
  NullCaches caches;
  proto::Dir1SW dir(32, cost, net, stats, caches);
  Cycle t = 0;
  Block b = 0;
  for (auto _ : state) {
    auto r = dir.get_exclusive(0, b, t);
    dir.put(0, b, true, r.done_at, true);
    t = r.done_at;
    b = (b + 1) % 4096;
  }
}
BENCHMARK(BM_Dir1SWHardwareFill);

void BM_Dir1SWTrapPath(benchmark::State& state) {
  CostModel cost;
  Stats stats(32);
  net::Network net(cost, stats);
  NullCaches caches;
  proto::Dir1SW dir(32, cost, net, stats, caches);
  Cycle t = 0;
  for (auto _ : state) {
    auto r1 = dir.get_exclusive(1, 5, t);
    auto r2 = dir.get_exclusive(2, 5, r1.done_at);  // recall trap
    t = r2.done_at;
  }
}
BENCHMARK(BM_Dir1SWTrapPath);

trace::Trace synth_trace(std::size_t misses) {
  trace::Trace t;
  t.misses.reserve(misses);
  std::uint64_t s = 42;
  for (std::size_t i = 0; i < misses; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    trace::MissRecord m;
    m.epoch = static_cast<EpochId>(i * 8 / misses);
    m.node = static_cast<NodeId>((s >> 33) % 32);
    m.kind = static_cast<trace::MissKind>((s >> 20) % 3);
    m.addr = 0x1000 + ((s >> 8) % 4096) * 8;
    m.size = 8;
    m.pc = 1;
    t.misses.push_back(m);
  }
  return t;
}

void BM_EpochDbBuild(benchmark::State& state) {
  trace::Trace t = synth_trace(static_cast<std::size_t>(state.range(0)));
  mem::CacheGeometry g;
  for (auto _ : state) {
    cachier::EpochDB db(t, g);
    benchmark::DoNotOptimize(db.epochs());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EpochDbBuild)->Arg(1024)->Arg(16384);

void BM_SharingAnalysis(benchmark::State& state) {
  trace::Trace t = synth_trace(static_cast<std::size_t>(state.range(0)));
  mem::CacheGeometry g;
  for (auto _ : state) {
    cachier::SharingAnalyzer sa(t, g);
    benchmark::DoNotOptimize(sa.races().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SharingAnalysis)->Arg(1024)->Arg(16384);

// Boundary-phase throughput: a barrier-heavy program where every epoch is a
// handful of shared accesses, so nearly all host time is boundary rounds
// (sort + service).  This is the path the hoisted Item vector in
// Machine::process_ops() optimizes -- the rebuilt/re-sorted scratch vector is
// now a reused member, so no-retry rounds do zero allocation.  Measured on
// the reference container (g++ 12, 1 core, median of 3 reps): reusing the
// vector moved this benchmark from ~248k to ~277k rounds/s (~12%).
void BM_BoundaryRounds(benchmark::State& state) {
  sim::SimConfig cfg;
  cfg.nodes = 8;
  cfg.cache.size_bytes = 4096;
  cfg.cache.assoc = 4;
  cfg.cache.block_bytes = 32;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    sim::Machine m(cfg);
    m.run([&](sim::Proc& p) {
      const Addr mine = cfg.heap_base + p.id() * 64;
      const Addr hot = cfg.heap_base + 4096;
      for (int e = 0; e < 16; ++e) {
        p.ld(hot + (p.id() % 4) * 8, 8, 1);
        p.st(mine + (e % 8) * 8, 8, 2);
        p.barrier();
      }
    });
    rounds += m.stats().node(0, Stat::BoundaryRounds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_BoundaryRounds);

// --- kern kernels: registered benches run at the ACTIVE dispatch level
// (CICO_SIMD=scalar pins the reference), over an L1-resident working set.

constexpr std::size_t kKernWords = 4096;  // 32 KB, L1-resident

std::vector<std::uint64_t> kern_words(std::uint64_t seed, bool sparse) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> w(kKernWords);
  for (auto& x : w) {
    x = rng();
    if (sparse) x &= rng() & rng();
  }
  return w;
}

void BM_KernBor(benchmark::State& state) {
  auto dst = kern_words(1, false);
  const auto src = kern_words(2, false);
  for (auto _ : state) {
    kern::ops().bor(dst.data(), src.data(), kKernWords);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kKernWords * 8);
}
BENCHMARK(BM_KernBor);

void BM_KernPopcount(benchmark::State& state) {
  const auto a = kern_words(3, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kern::ops().popcount(a.data(), kKernWords));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kKernWords * 8);
}
BENCHMARK(BM_KernPopcount);

void BM_KernFindU64(benchmark::State& state) {
  const auto a = kern_words(4, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kern::ops().find_u64(a.data(), kKernWords, 0xF00DULL));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kKernWords * 8);
}
BENCHMARK(BM_KernFindU64);

// --- hand-timed scalar vs best-dispatch comparison + JSON writer ----------

struct KernResult {
  const char* name;
  double scalar_ns = 0.0;  // per pass over kKernWords
  double simd_ns = 0.0;
  [[nodiscard]] double speedup() const {
    return simd_ns > 0.0 ? scalar_ns / simd_ns : 0.0;
  }
};

/// Best-of-trials time for `passes` invocations of fn (ns per pass).
template <typename Fn>
double time_ns(Fn&& fn) {
  constexpr int kPasses = 200;
  constexpr int kTrials = 5;
  double best = 1e300;
  for (int t = 0; t < kTrials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int p = 0; p < kPasses; ++p) fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / kPasses;
    best = std::min(best, ns);
  }
  return best;
}

int run_kernel_compare(const char* json_path) {
  const kern::Ops& sc = kern::scalar_ops();
  const kern::Ops& best = kern::ops();  // startup dispatch (CICO_SIMD aware)
  const auto a = kern_words(10, false);
  const auto b = kern_words(11, false);
  const auto sparse = kern_words(12, true);

  // Byte-identity self-check: every entry point, both levels, plus a
  // sparse operand so find_nonzero exercises real word walks.
  bool identical = true;
  auto check = [&identical](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "kernel mismatch: %s\n", what);
      identical = false;
    }
  };
  for (const auto* src : {&b, &sparse}) {
    auto d1 = a, d2 = a;
    sc.bor(d1.data(), src->data(), kKernWords);
    best.bor(d2.data(), src->data(), kKernWords);
    check(d1 == d2, "bor");
    d1 = a; d2 = a;
    sc.band(d1.data(), src->data(), kKernWords);
    best.band(d2.data(), src->data(), kKernWords);
    check(d1 == d2, "band");
    d1 = a; d2 = a;
    sc.bandnot(d1.data(), src->data(), kKernWords);
    best.bandnot(d2.data(), src->data(), kKernWords);
    check(d1 == d2, "bandnot");
    check(sc.popcount(src->data(), kKernWords) ==
              best.popcount(src->data(), kKernWords),
          "popcount");
    check(sc.equal(a.data(), src->data(), kKernWords) ==
              best.equal(a.data(), src->data(), kKernWords),
          "equal");
    check(sc.find_nonzero(src->data(), kKernWords) ==
              best.find_nonzero(src->data(), kKernWords),
          "find_nonzero");
    check(sc.find_u64(src->data(), kKernWords, (*src)[kKernWords / 2]) ==
              best.find_u64(src->data(), kKernWords, (*src)[kKernWords / 2]),
          "find_u64");
  }

  std::vector<KernResult> results;
  auto dst = a;
  auto bench_pair = [&](const char* name, auto&& mk) {
    KernResult r;
    r.name = name;
    r.scalar_ns = time_ns(mk(sc));
    r.simd_ns = time_ns(mk(best));
    results.push_back(r);
  };
  bench_pair("bor", [&](const kern::Ops& o) {
    return [&dst, &b, &o] { o.bor(dst.data(), b.data(), kKernWords); };
  });
  bench_pair("band", [&](const kern::Ops& o) {
    return [&dst, &b, &o] { o.band(dst.data(), b.data(), kKernWords); };
  });
  bench_pair("bandnot", [&](const kern::Ops& o) {
    return [&dst, &b, &o] { o.bandnot(dst.data(), b.data(), kKernWords); };
  });
  bench_pair("popcount", [&](const kern::Ops& o) {
    return [&a, &o] {
      benchmark::DoNotOptimize(o.popcount(a.data(), kKernWords));
    };
  });
  bench_pair("equal", [&](const kern::Ops& o) {
    return [&a, &o] {
      benchmark::DoNotOptimize(o.equal(a.data(), a.data(), kKernWords));
    };
  });
  bench_pair("find_nonzero_sparse", [&](const kern::Ops& o) {
    return [&sparse, &o] {
      benchmark::DoNotOptimize(o.find_nonzero(sparse.data(), kKernWords));
    };
  });
  bench_pair("find_u64_miss", [&](const kern::Ops& o) {
    return [&a, &o] {
      benchmark::DoNotOptimize(o.find_u64(a.data(), kKernWords, 0xF00DULL));
    };
  });

  double max_speedup = 0.0;
  std::printf("kern kernels: scalar vs %s over %zu words\n",
              kern::level_name(best.level), kKernWords);
  std::printf("%-20s %-12s %-12s %-8s\n", "kernel", "scalar_ns", "simd_ns",
              "speedup");
  for (const KernResult& r : results) {
    std::printf("%-20s %-12.1f %-12.1f %-8.2f\n", r.name, r.scalar_ns,
                r.simd_ns, r.speedup());
    max_speedup = std::max(max_speedup, r.speedup());
  }
  std::printf("byte_identical=%s  max_speedup=%.2f\n",
              identical ? "true" : "false", max_speedup);

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::perror(json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"micro_kernels\",\n");
    std::fprintf(f, "  \"dispatch\": \"%s\",\n", kern::level_name(best.level));
    std::fprintf(f, "  \"words\": %zu,\n", kKernWords);
    std::fprintf(f, "  \"byte_identical\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(f, "  \"max_speedup\": %.2f,\n", max_speedup);
    std::fprintf(f, "  \"kernels\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const KernResult& r = results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"scalar_ns_per_pass\": %.1f, "
                   "\"simd_ns_per_pass\": %.1f, \"speedup\": %.2f}%s\n",
                   r.name, r.scalar_ns, r.simd_ns, r.speedup(),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return identical ? 0 : 1;
}

void BM_PlanBuild(benchmark::State& state) {
  trace::Trace t = synth_trace(16384);
  mem::CacheGeometry g;
  cachier::PlanBuilder pb(t, g);
  for (auto _ : state) {
    auto plan = pb.build({.mode = cachier::Mode::Performance});
    benchmark::DoNotOptimize(plan.entries());
  }
}
BENCHMARK(BM_PlanBuild);

}  // namespace

int main(int argc, char** argv) {
  // Strip our flags before the benchmark library sees argv.
  const char* json_path = nullptr;
  bool kernel_only = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kernel-json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--kernel-only") {
      kernel_only = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  const int rc = run_kernel_compare(json_path);
  if (rc != 0 || kernel_only) return rc;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

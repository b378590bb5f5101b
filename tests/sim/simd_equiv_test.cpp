// Cross-dispatch equivalence: the kern dispatch level (scalar / AVX2 /
// NEON) is an implementation detail, so a full simulated run must produce
// the SAME deterministic fingerprint -- execution time, epochs, every
// per-node stat counter, network totals, trace text -- under every level
// available on the host, in every engine configuration that exercises the
// kernels (plain, paranoid audits, trace mode, directive plans via the full
// annotate pipeline in minipar_apps_test).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/jacobi.hpp"
#include "apps/matmul.hpp"
#include "cico/kern/kernels.hpp"
#include "cico/sim/machine.hpp"
#include "cico/trace/trace.hpp"

namespace cico::sim {
namespace {

std::vector<kern::Level> available_levels() {
  std::vector<kern::Level> ls;
  for (kern::Level l :
       {kern::Level::Scalar, kern::Level::AVX2, kern::Level::NEON}) {
    if (kern::level_available(l)) ls.push_back(l);
  }
  return ls;
}

struct Fingerprint {
  Cycle time = 0;
  EpochId epochs = 0;
  std::vector<std::array<std::uint64_t, kStatCount>> stats;
  std::uint64_t msgs = 0;
  std::string trace_text;

  bool operator==(const Fingerprint& o) const = default;
};

enum class AppKind { MatMul, Jacobi };

Fingerprint run_once(AppKind app, bool paranoid, bool trace_mode) {
  SimConfig cfg;
  cfg.nodes = app == AppKind::MatMul ? 8 : 16;
  cfg.cache.size_bytes = 4096;
  cfg.cache.assoc = 4;
  cfg.cache.block_bytes = 32;
  cfg.audit_invariants = paranoid;
  cfg.trace_mode = trace_mode;

  Machine m(cfg);
  trace::TraceWriter w;
  if (trace_mode) m.set_trace_writer(&w);
  std::unique_ptr<apps::App> a;
  if (app == AppKind::MatMul) {
    apps::MatMulConfig c;
    c.n = 24;
    c.prow = 4;
    c.pcol = 2;
    a = std::make_unique<apps::MatMul>(c, /*seed=*/2);
  } else {
    apps::JacobiConfig c;
    c.n = 16;
    c.steps = 2;
    c.p = 4;
    a = std::make_unique<apps::Jacobi>(c, /*seed=*/2);
  }
  a->setup(m, apps::Variant::None);
  m.run([&](Proc& p) { a->body(p); });
  EXPECT_TRUE(a->verify());
  EXPECT_EQ(m.directory().check_invariants(), "");

  Fingerprint f;
  f.time = m.exec_time();
  f.epochs = m.epochs_completed();
  f.stats.resize(cfg.nodes);
  for (NodeId n = 0; n < cfg.nodes; ++n) {
    for (std::size_t i = 0; i < kStatCount; ++i) {
      f.stats[n][i] = m.stats().node(n, static_cast<Stat>(i));
    }
  }
  f.msgs = m.network().total_sent();
  if (trace_mode) {
    std::ostringstream os;
    trace::save_text(w.take(), os);
    f.trace_text = os.str();
  }
  return f;
}

class SimdEquiv : public ::testing::TestWithParam<AppKind> {};

TEST_P(SimdEquiv, RunsAreByteIdenticalUnderEveryDispatchLevel) {
  const auto levels = available_levels();
  ASSERT_FALSE(levels.empty());
  // Scalar is always available and is the reference.
  const kern::Level before = kern::set_level(kern::Level::Scalar);
  const Fingerprint ref = run_once(GetParam(), false, false);
  const Fingerprint ref_par = run_once(GetParam(), true, false);
  const Fingerprint ref_trace = run_once(GetParam(), false, true);
  ASSERT_FALSE(ref_trace.trace_text.empty());
  for (kern::Level l : levels) {
    SCOPED_TRACE(kern::level_name(l));
    kern::set_level(l);
    EXPECT_EQ(run_once(GetParam(), false, false), ref);
    EXPECT_EQ(run_once(GetParam(), true, false), ref_par);
    EXPECT_EQ(run_once(GetParam(), false, true), ref_trace);
  }
  kern::set_level(before);
}

INSTANTIATE_TEST_SUITE_P(Apps, SimdEquiv,
                         ::testing::Values(AppKind::MatMul, AppKind::Jacobi),
                         [](const auto& info) {
                           return info.param == AppKind::MatMul ? "matmul"
                                                                : "jacobi";
                         });

}  // namespace
}  // namespace cico::sim

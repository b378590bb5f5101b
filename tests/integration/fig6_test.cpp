// Paper gate for EXPERIMENTS.md E1 (Fig. 6): the five benchmarks at their
// scaled-down default sizes (paper sizes in the factory comments), on 32
// simulated Dir1SW nodes.  Simulated cycles are deterministic, so every
// app x variant normalized time is pinned exactly (to the three decimals
// EXPERIMENTS.md records), and the section 6 shape claims are asserted on
// the unrounded values.  Each app is its own ctest entry (fig6_test_<app>).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/barnes.hpp"
#include "apps/matmul.hpp"
#include "apps/mp3d.hpp"
#include "apps/ocean.hpp"
#include "apps/runner.hpp"
#include "apps/tomcatv.hpp"

namespace {

using namespace cico;
using namespace cico::apps;

AppFactory matmul_factory() {
  MatMulConfig c;  // paper: 256x256
  c.n = 96;        // a multiple of the 8x4 processor grid
  return [c](std::uint64_t s) { return std::make_unique<MatMul>(c, s); };
}

AppFactory ocean_factory() {
  OceanConfig c;  // paper: 98x98
  c.n = 98;
  c.iters = 6;
  return [c](std::uint64_t s) { return std::make_unique<Ocean>(c, s); };
}

AppFactory tomcatv_factory() {
  TomcatvConfig c;  // paper: 1024x1024, 10 iters
  c.rows = 256;
  c.cols = 128;
  c.iters = 4;
  return [c](std::uint64_t s) { return std::make_unique<Tomcatv>(c, s); };
}

AppFactory mp3d_factory() {
  Mp3dConfig c;  // paper: 50,000 molecules, 10 steps
  c.molecules = 4096;
  c.steps = 6;
  return [c](std::uint64_t s) { return std::make_unique<Mp3d>(c, s); };
}

AppFactory barnes_factory() {
  BarnesConfig c;  // paper: 1024 bodies
  c.bodies = 1024;
  c.steps = 2;
  return [c](std::uint64_t s) { return std::make_unique<Barnes>(c, s); };
}

/// Section 6 machine: 32 nodes, 256 KB 4-way 32 B caches; the trace and
/// the measured runs use different inputs, as the paper did.
HarnessConfig fig6_config() {
  HarnessConfig hc;
  hc.sim.nodes = 32;
  hc.trace_seed = 1;
  hc.measure_seed = 2;
  return hc;
}

struct Pinned {
  const char* app;
  AppFactory (*factory)();
  /// variant -> normalized time; "hand+pf" is measured only where listed
  std::map<std::string, std::string> norm;
};

const Pinned kTable[] = {
    {"matmul", matmul_factory,
     {{"none", "1.000"}, {"hand", "0.958"}, {"hand+pf", "0.931"},
      {"cachier", "0.951"}, {"cachier+pf", "0.869"}}},
    {"barnes", barnes_factory,
     {{"none", "1.000"}, {"hand", "0.855"}, {"cachier", "0.846"},
      {"cachier+pf", "0.846"}}},
    {"tomcatv", tomcatv_factory,
     {{"none", "1.000"}, {"hand", "0.990"}, {"cachier", "0.964"},
      {"cachier+pf", "0.944"}}},
    {"ocean", ocean_factory,
     {{"none", "1.000"}, {"hand", "0.912"}, {"cachier", "0.748"},
      {"cachier+pf", "0.624"}}},
    {"mp3d", mp3d_factory,
     {{"none", "1.000"}, {"hand", "1.075"}, {"cachier", "0.364"},
      {"cachier+pf", "0.367"}}},
};

/// One app per test, so tests/CMakeLists.txt registers one ctest entry
/// per app (gtest filter `*/<app>`) and `ctest -j` overlaps them.
class Fig6 : public ::testing::TestWithParam<Pinned> {};

TEST_P(Fig6, PinnedTimesAndSection6Shape) {
  const Pinned& p = GetParam();
  const std::string app = p.app;
  std::vector<Variant> vs{Variant::None, Variant::Hand, Variant::Cachier,
                          Variant::CachierPf};
  if (p.norm.contains("hand+pf")) {
    vs.insert(vs.begin() + 2, Variant::HandPf);
  }
  Harness h(p.factory(), fig6_config());
  const std::vector<RunResult> rs = h.run_variants(vs);
  ASSERT_EQ(rs.size(), p.norm.size());
  std::map<std::string, double> norm;
  for (const RunResult& r : rs) {
    EXPECT_TRUE(r.verified) << r.variant;
    const double n = r.normalized_to(rs.front());
    char got[32];
    std::snprintf(got, sizeof got, "%.3f", n);
    EXPECT_EQ(got, p.norm.at(r.variant)) << r.variant;
    norm[r.variant] = n;
  }
  EXPECT_LE(norm["cachier"], norm["hand"])
      << "Cachier must match or beat the hand annotations";
  if (app == "mp3d") {
    EXPECT_GT(norm["hand"], 1.0) << "Mp3d hand is worse than none";
  }
  if (app == "tomcatv") {
    EXPECT_LE(std::abs(norm["cachier"] - 1.0), 0.05);
  }
  if (app == "matmul" || app == "ocean") {
    EXPECT_LT(norm["cachier+pf"], norm["cachier"])
        << "prefetch must help " << app;
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, Fig6, ::testing::ValuesIn(kTable),
                         [](const ::testing::TestParamInfo<Pinned>& info) {
                           return std::string(info.param.app);
                         });

}  // namespace

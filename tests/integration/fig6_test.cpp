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

#include "fig6_workloads.hpp"

namespace {

using namespace cico;
using namespace cico::apps;

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

// The five Fig. 6 benchmarks at their scaled-down default sizes (paper
// sizes in the comments) and the section 6 machine, shared by the paper
// gates that measure them (fig6_test, ablation_test).
#pragma once

#include <memory>

#include "apps/barnes.hpp"
#include "apps/matmul.hpp"
#include "apps/mp3d.hpp"
#include "apps/ocean.hpp"
#include "apps/runner.hpp"
#include "apps/tomcatv.hpp"

namespace cico::apps {

inline AppFactory matmul_factory() {
  MatMulConfig c;  // paper: 256x256
  c.n = 96;        // a multiple of the 8x4 processor grid
  return [c](std::uint64_t s) { return std::make_unique<MatMul>(c, s); };
}

inline AppFactory ocean_factory() {
  OceanConfig c;  // paper: 98x98
  c.n = 98;
  c.iters = 6;
  return [c](std::uint64_t s) { return std::make_unique<Ocean>(c, s); };
}

inline AppFactory tomcatv_factory() {
  TomcatvConfig c;  // paper: 1024x1024, 10 iters
  c.rows = 256;
  c.cols = 128;
  c.iters = 4;
  return [c](std::uint64_t s) { return std::make_unique<Tomcatv>(c, s); };
}

inline AppFactory mp3d_factory() {
  Mp3dConfig c;  // paper: 50,000 molecules, 10 steps
  c.molecules = 4096;
  c.steps = 6;
  return [c](std::uint64_t s) { return std::make_unique<Mp3d>(c, s); };
}

inline AppFactory barnes_factory() {
  BarnesConfig c;  // paper: 1024 bodies
  c.bodies = 1024;
  c.steps = 2;
  return [c](std::uint64_t s) { return std::make_unique<Barnes>(c, s); };
}

/// Section 6 machine: 32 nodes, 256 KB 4-way 32 B caches; the trace and
/// the measured runs use different inputs, as the paper did.
inline HarnessConfig fig6_config() {
  HarnessConfig hc;
  hc.sim.nodes = 32;
  hc.trace_seed = 1;
  hc.measure_seed = 2;
  return hc;
}

}  // namespace cico::apps

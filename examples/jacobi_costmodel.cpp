// The section 2 running example: CICO as a programmer's PERFORMANCE
// MODEL, not just a directive mechanism.
//
// The paper derives, by hand, how many cache blocks the annotated Jacobi
// program checks out per time step, and uses the two placements
// (cache-fit vs column-fit) to show how the model exposes the cost of a
// decomposition.  This example evaluates those closed forms for the
// paper's parameters and then RUNS the annotated program on the
// simulator, showing the counted directives agree with the model -- the
// model is exact, which is the point of section 2.1.
//
// Build & run:   ./build/examples/jacobi_costmodel
#include <cstdio>
#include <memory>

#include "apps/jacobi.hpp"
#include "apps/runner.hpp"

using namespace cico;
using namespace cico::apps;

int main() {
  const std::uint32_t P = 4;  // P^2 = 16 processors
  const double b = 4.0;       // matrix elements per 32-byte block
  const std::size_t N = 64, T = 4;

  std::printf("CICO analytic cost model, Jacobi %zux%zu, P^2=%u procs, "
              "b=%.0f, T=%zu\n\n", N, N, P * P, b, T);

  const double n = static_cast<double>(N), t = static_cast<double>(T),
               pd = static_cast<double>(P);
  const double fit_total = 2 * n * pd * t * (1 + b) / b + n * n / b;
  const double col_total = (2 * n * pd * (1 + b) / b + n * n / b) * t;
  std::printf("model, cache-fit:  2NPT(1+b)/b + N^2/b      = %8.0f blocks\n",
              fit_total);
  std::printf("model, column-fit: (2NP(1+b)/b + N^2/b) * T = %8.0f blocks\n\n",
              col_total);

  for (bool fits : {true, false}) {
    JacobiConfig jc;
    jc.n = N;
    jc.steps = T;
    jc.p = P;
    jc.cache_fits = fits;
    HarnessConfig hc;
    hc.sim.nodes = P * P;
    Harness h([jc](std::uint64_t s) { return std::make_unique<Jacobi>(jc, s); },
              hc);
    RunResult r = h.measure(Variant::Hand);  // the paper's listings, verbatim
    std::printf("measured, %-10s: check-outs=%llu  check-ins=%llu  "
                "exec=%llu cycles  result %s\n",
                fits ? "cache-fit" : "column-fit",
                static_cast<unsigned long long>(r.stat(Stat::CheckOutX) +
                                                r.stat(Stat::CheckOutS)),
                static_cast<unsigned long long>(r.stat(Stat::CheckIns)),
                static_cast<unsigned long long>(r.time),
                r.verified ? "verified" : "WRONG");
  }
  std::printf(
      "\n(The measured cache-fit count exceeds the single-matrix model by\n"
      "exactly N^2/b: this Jacobi double-buffers, so the one-time block\n"
      "checkout happens for both buffers -- see EXPERIMENTS.md E2 for the\n"
      "adjusted model, which matches to the block.)\n");
  return 0;
}

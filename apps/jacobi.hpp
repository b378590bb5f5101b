// Jacobi relaxation -- the paper's section 2.1 running example, used to
// derive the CICO analytic communication-cost model:
//
//   With P^2 processors on an N x N matrix (b elements per cache block),
//   per time step each processor checks out
//     boundary columns: 2N/(bP) blocks,  boundary rows: 2N/P blocks,
//   and the one-time checkout of its own matrix block is N^2/(bP^2)
//   blocks -- so T time steps over all processors check out
//     2NPT(1+b)/b + N^2/b   cache blocks   (cache-fit case), or
//     (2NP(1+b)/b + N^2/b)T cache blocks   (column-fit case).
//
// paper_test (EXPERIMENTS.md E2) pins that table against the measured
// checkout counts of this app.  The decomposition and the
// boundary-copy-then-stencil structure follow the paper's pseudo-code;
// rows/columns are stored row-major here, so the paper's "columns" map to
// our contiguous rows (the formulas are symmetric, see EXPERIMENTS.md).
#pragma once

#include <memory>
#include <vector>

#include "apps/app.hpp"
#include "cico/sim/shared_array.hpp"

namespace cico::apps {

struct JacobiConfig {
  std::size_t n = 64;       ///< matrix dimension; needs P^2 nodes, N % P == 0
  std::size_t steps = 4;    ///< time steps T
  std::uint32_t p = 4;      ///< processor grid edge (P^2 = nodes)
  /// Annotate per the cache-fit case (one-time block checkout) or the
  /// column-fit case (per-step row checkouts) -- the two section 2.1
  /// listings.
  bool cache_fits = true;
};

class Jacobi : public App {
 public:
  Jacobi(JacobiConfig cfg, std::uint64_t seed) : cfg_(cfg), seed_(seed) {}

  [[nodiscard]] std::string_view name() const override { return "jacobi"; }
  void setup(sim::Machine& m, Variant v) override;
  void body(sim::Proc& p) override;
  [[nodiscard]] bool verify() const override;

 private:
  [[nodiscard]] double init_val(std::size_t i, std::size_t j) const;

  JacobiConfig cfg_;
  std::uint64_t seed_;
  Variant variant_ = Variant::None;
  std::unique_ptr<sim::SharedArray2<double>> u_, v_;
  std::vector<double> ref_;
  PcId pc_init_ = 0, pc_ld_ = 0, pc_st_ = 0, pc_bnd_ = 0, pc_bar_ = 0;
};

}  // namespace cico::apps

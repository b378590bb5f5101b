// Typed shared arrays: the benchmark-facing view of simulated shared
// memory.
//
// The simulator is execution-driven: coherence state lives in the cache
// models, but the DATA lives right here in host memory, so benchmarks
// compute real results that tests can verify.  Every element access first
// reports itself to the simulator (charging hit/miss cycles and updating
// protocol state) and then performs the actual load/store.  Elements are
// plain host values: a Machine runs every node as a fiber on one host
// thread and never shares its arrays with another Machine, so a data race
// in the simulated program (like the paper's matrix-multiply example,
// section 4.4, which Cachier *flags*) interleaves at fiber switches only
// and is never a host data race.
//
// Construction allocates a labelled region from the machine's SharedHeap;
// the label is the paper's "labelled region of memory mapped onto program
// data structures" (section 4.3).
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "cico/sim/machine.hpp"

namespace cico::sim {

template <class T>
class SharedArray {
 public:
  /// Allocates `n` elements labelled `label`.  `regular=false` marks a
  /// pointer-style region (excluded from prefetch planning).
  SharedArray(Machine& m, std::string label, std::size_t n, bool regular = true)
      : base_(m.heap().alloc(n * sizeof(T), std::move(label), regular)),
        data_(std::make_unique<T[]>(n)),
        n_(n) {}

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] Addr base() const { return base_; }
  [[nodiscard]] Addr addr_of(std::size_t i) const { return base_ + i * sizeof(T); }
  [[nodiscard]] std::uint64_t bytes() const { return n_ * sizeof(T); }

  /// Simulated load.
  [[nodiscard]] T ld(Proc& p, std::size_t i, PcId pc) const {
    p.ld(addr_of(i), sizeof(T), pc);
    return data_[i];
  }

  /// Simulated store.
  void st(Proc& p, std::size_t i, T v, PcId pc) {
    p.st(addr_of(i), sizeof(T), pc);
    data_[i] = v;
  }

  /// Non-simulated access, for initialization before run() and for
  /// verification afterwards.
  [[nodiscard]] T raw(std::size_t i) const { return data_[i]; }
  void set_raw(std::size_t i, T v) { data_[i] = v; }

 private:
  Addr base_;
  std::unique_ptr<T[]> data_;
  std::size_t n_;
};

/// Row-major 2-D shared array.
template <class T>
class SharedArray2 {
 public:
  SharedArray2(Machine& m, std::string label, std::size_t rows,
               std::size_t cols, bool regular = true)
      : flat_(m, std::move(label), rows * cols, regular),
        rows_(rows),
        cols_(cols) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] Addr base() const { return flat_.base(); }
  [[nodiscard]] std::uint64_t bytes() const { return flat_.bytes(); }
  [[nodiscard]] Addr addr_of(std::size_t i, std::size_t j) const {
    return flat_.addr_of(i * cols_ + j);
  }
  /// Address range of one row (convenient for range directives).
  [[nodiscard]] Addr row_addr(std::size_t i) const { return addr_of(i, 0); }
  [[nodiscard]] std::uint64_t row_bytes() const { return cols_ * sizeof(T); }

  [[nodiscard]] T ld(Proc& p, std::size_t i, std::size_t j, PcId pc) const {
    return flat_.ld(p, i * cols_ + j, pc);
  }
  void st(Proc& p, std::size_t i, std::size_t j, T v, PcId pc) {
    flat_.st(p, i * cols_ + j, v, pc);
  }
  [[nodiscard]] T raw(std::size_t i, std::size_t j) const {
    return flat_.raw(i * cols_ + j);
  }
  void set_raw(std::size_t i, std::size_t j, T v) {
    flat_.set_raw(i * cols_ + j, v);
  }

 private:
  SharedArray<T> flat_;
  std::size_t rows_;
  std::size_t cols_;
};

}  // namespace cico::sim

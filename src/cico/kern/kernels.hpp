// Runtime-dispatched word-level kernels (the cico::kern layer).
//
// Every data-parallel hot path in the simulator -- epoch set algebra over
// block bitsets (SW/SR/S, DRFS), cache-set tag scans, directive-plan
// application -- bottoms out in a handful of flat loops over uint64_t
// words.  This header names those loops once, as a function-pointer table,
// and picks the best implementation for the host exactly once at startup:
//
//   * scalar  -- portable reference, always available;
//   * avx2    -- 256-bit x86 kernels, selected when the CPU reports AVX2
//                (feature probe via __builtin_cpu_supports);
//   * neon    -- 128-bit AArch64 kernels (baseline on arm64).
//
// `CICO_SIMD=scalar|avx2|neon` overrides the probe (tests force levels to
// prove byte-identical results; ops deployments can pin scalar when
// chasing a miscompile).  An unavailable override falls back to the best
// supported level with a one-line stderr note.
//
// Contract: every level computes bit-identical results.  Dispatch is an
// implementation detail -- simulator output MUST NOT depend on it, and the
// kernel equivalence suite + the cross-dispatch byte-identity CI gate
// enforce that.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace cico::kern {

enum class Level : std::uint8_t { Scalar = 0, AVX2 = 1, NEON = 2 };

/// One dispatch level's kernel table.  All pointers are non-null.
struct Ops {
  Level level = Level::Scalar;

  /// dst[i] |= src[i]  (set union)
  void (*bor)(std::uint64_t* dst, const std::uint64_t* src, std::size_t n);
  /// dst[i] &= src[i]  (set intersection)
  void (*band)(std::uint64_t* dst, const std::uint64_t* src, std::size_t n);
  /// dst[i] &= ~src[i]  (set subtraction)
  void (*bandnot)(std::uint64_t* dst, const std::uint64_t* src, std::size_t n);
  /// Total population count over a[0..n).
  std::uint64_t (*popcount)(const std::uint64_t* a, std::size_t n);
  /// a[0..n) == b[0..n)
  bool (*equal)(const std::uint64_t* a, const std::uint64_t* b, std::size_t n);
  /// Smallest i with a[i] != 0, or n (iterate-set-bits word advance).
  std::size_t (*find_nonzero)(const std::uint64_t* a, std::size_t n);
  /// Smallest i with a[i] == key, or n (cache-set tag scan).
  std::size_t (*find_u64)(const std::uint64_t* a, std::size_t n,
                          std::uint64_t key);
};

/// The portable reference table (always available; the equivalence oracle).
[[nodiscard]] const Ops& scalar_ops();

/// True when `l` can run on this host.
[[nodiscard]] bool level_available(Level l);

[[nodiscard]] const char* level_name(Level l);

namespace detail {
/// The active table; null until the first ops() call resolves it.
extern std::atomic<const Ops*> active_ops;
/// One-time dispatch resolution behind a null active_ops.
[[nodiscard]] const Ops& resolve_ops();
}  // namespace detail

/// The active kernel table.  First call resolves the dispatch (CICO_SIMD
/// override, else feature probe); later calls are a single inline load.
[[nodiscard]] inline const Ops& ops() {
  const Ops* t = detail::active_ops.load();
  return t != nullptr ? *t : detail::resolve_ops();
}

[[nodiscard]] Level active_level();

/// Test hook: force a dispatch level at runtime.  Returns the level that
/// was active before.  Throws std::invalid_argument when `l` is not
/// available on this host.  Not thread-safe against concurrent kernel use;
/// call only from single-threaded test setup.
Level set_level(Level l);

}  // namespace cico::kern

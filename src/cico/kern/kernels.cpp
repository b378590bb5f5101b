// Dispatch resolution for the kernel layer.  The table is chosen exactly
// once (first ops() call): CICO_SIMD overrides the feature probe, an
// unavailable request falls back to the best supported level with a
// stderr note, and set_level() lets tests flip levels afterwards.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "cico/kern/kernels.hpp"

namespace cico::kern {

// Provided by kernels_avx2.cpp / kernels_neon.cpp (null off-architecture).
const Ops* avx2_ops_or_null();
bool cpu_has_avx2();
const Ops* neon_ops_or_null();

namespace {

const Ops* table_for(Level l) {
  switch (l) {
    case Level::Scalar:
      return &scalar_ops();
    case Level::AVX2:
      return cpu_has_avx2() ? avx2_ops_or_null() : nullptr;
    case Level::NEON:
      return neon_ops_or_null();
  }
  return nullptr;
}

Level best_level() {
  if (table_for(Level::AVX2) != nullptr) return Level::AVX2;
  if (table_for(Level::NEON) != nullptr) return Level::NEON;
  return Level::Scalar;
}

const Ops* resolve_startup() {
  const char* req = std::getenv("CICO_SIMD");
  if (req == nullptr || *req == '\0') return table_for(best_level());
  Level want = Level::Scalar;
  if (std::strcmp(req, "scalar") == 0) {
    want = Level::Scalar;
  } else if (std::strcmp(req, "avx2") == 0) {
    want = Level::AVX2;
  } else if (std::strcmp(req, "neon") == 0) {
    want = Level::NEON;
  } else {
    std::fprintf(stderr,
                 "# cico: unknown CICO_SIMD=%s (want scalar|avx2|neon); "
                 "using %s\n",
                 req, level_name(best_level()));
    return table_for(best_level());
  }
  if (const Ops* t = table_for(want)) return t;
  std::fprintf(stderr, "# cico: CICO_SIMD=%s unavailable on this host; using %s\n",
               req, level_name(best_level()));
  return table_for(best_level());
}

}  // namespace

bool level_available(Level l) { return table_for(l) != nullptr; }

const char* level_name(Level l) {
  switch (l) {
    case Level::Scalar:
      return "scalar";
    case Level::AVX2:
      return "avx2";
    case Level::NEON:
      return "neon";
  }
  return "?";
}

namespace detail {

std::atomic<const Ops*> active_ops{nullptr};

const Ops& resolve_ops() {
  // The probe (and its stderr note) runs once; set_level() may repoint
  // active_ops afterwards from single-threaded test code.
  static const Ops* const chosen = resolve_startup();
  active_ops.store(chosen);
  return *chosen;
}

}  // namespace detail

Level active_level() { return ops().level; }

Level set_level(Level l) {
  const Ops* t = table_for(l);
  if (t == nullptr) {
    throw std::invalid_argument(std::string("kern level unavailable: ") +
                                level_name(l));
  }
  const Level prev = ops().level;
  detail::active_ops.store(t);
  return prev;
}

}  // namespace cico::kern

// Seeded input generators.  The benchmark passes the program under test
// only what these produce; the same seed always yields the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cico/lang/ast.hpp"

namespace perfbench {

/// One bundled MiniPar app with its constants redrawn from the seed.
struct AppProgram {
  std::string name;    ///< app name plus the drawn constants
  std::string source;  ///< MiniPar text
  std::uint32_t nodes = 4;
};

/// `variants` draws of each bundled app in examples/minipar (relative to
/// the working directory), scaled by `seed`.  Draws that break an app's
/// divisibility or grid constraints are rejected and redrawn, so every
/// program computes its whole index space at the node count its header
/// requires.
std::vector<AppProgram> scaled_apps(std::uint64_t seed, std::size_t variants);

/// One synthetic program for the trace-free (static) path.
struct StaticProgram {
  std::string name;
  std::string source;
  std::uint32_t nodes = 4;
  /// Annotate in programmer mode (a check-out for every access), whose
  /// deleted directives lint reports and `lint --fix` must repair;
  /// otherwise performance mode.
  bool programmer = false;
  std::uint64_t mutation_seed = 0;  ///< drives mutate_directives()
};

/// A seeded corpus of `count` programs mixing the kernel families
/// described in inputs.cpp, at node counts from 4 to 64.
std::vector<StaticProgram> static_corpus(std::uint64_t seed, std::size_t count);

/// Deletes a seeded, non-empty subset of the directive statements in `p`
/// (nothing when it has none).  Returns the number deleted.
std::size_t mutate_directives(cico::lang::Program& p, std::uint64_t seed);

/// Alters the right-hand side of the last shared-array assignment in `p`
/// (adds 1), so the program computes a different result.  Returns false
/// when `p` has no such assignment.
bool corrupt_one_assignment(cico::lang::Program& p);

}  // namespace perfbench

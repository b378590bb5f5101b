// CICO typestate checker.
//
// Verifies the check-in / check-out discipline statically, before a
// program ever reaches the simulator.  Each shared array carries a small
// per-path lattice through a forward dataflow pass over the Cfg:
//
//     Bottom < {Idle, CheckedOutX, CheckedOutS} < Top
//
// plus may/must bits (may-be-checked-out, accessed-this-epoch on
// some/all paths, checked-out-this-epoch, lock held).  Two backward
// passes supply the epoch-scoped facts the rules need: whether an
// uncovered use of the array lies ahead (kill at barrier and at
// re-checkout) and whether a check_in lies ahead (the annotator's
// write-then-publish idiom).  The rules CICO001..CICO009 rediscover the
// paper's section 6 hand-annotation defects -- Mp3d's premature
// check_in, Barnes's missed annotations, MM's redundant loop checkouts
// -- as compile-time diagnostics instead of simulated cycle deltas.
#pragma once

#include "cico/analysis/diagnostics.hpp"
#include "cico/lang/ast.hpp"

namespace cico::analysis {

/// Runs every CICO rule over the program; diagnostics come back in the
/// deterministic (line, col, rule, array, message) order.
[[nodiscard]] LintResult lint(const lang::Program& program);

}  // namespace cico::analysis

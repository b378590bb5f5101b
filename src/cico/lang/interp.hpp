// MiniPar interpreter: binds a parsed program to a simulated machine and
// executes it on every node.
//
// Shared arrays become labelled SharedHeap regions (the paper's labelling
// macro, applied automatically); every array access is a simulated shared
// load/store whose PcId is interned per AST node, so the resulting trace
// maps straight back to source statements.  Directive statements map to
// the runtime's CICO operations, which means an ANNOTATED program -- the
// source annotator's output -- runs directly and its annotations act as
// Dir1SW memory-system directives.
//
// The parallel body is compiled once, at load, into flat post-order op
// code over a stack of doubles: every op carries its resolved frame slot,
// shared array and PcId, `&&`/`||` are jumps, and a `Var +/- Number`
// operand is one op.  Every node runs the same code on its own frame.
// Run-time checks stay where the statements put them: a Var reads the
// node's value of its name -- the const of that name until the node first
// writes it -- and fails with "unknown variable" when there is neither;
// an undeclared array fails with "unknown shared array" only when the
// statement executes.  The load also checks that AST nodes sharing an id
// (the annotator's clones) share a name, because the id keys their PcId.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cico/lang/ast.hpp"
#include "cico/sim/machine.hpp"

namespace cico::lang {

/// Thrown for runtime errors in the interpreted program (bad subscript,
/// unknown name, zero step...).
class InterpError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class LoadedProgram {
 public:
  /// Evaluates const declarations, allocates every shared array on the
  /// machine's heap, interns access-site PcIds and compiles the parallel
  /// body.  The Program is not referenced afterwards.
  LoadedProgram(const Program& src, sim::Machine& m);

  /// Per-node program body: pass to Machine::run.
  void run_node(sim::Proc& p);

  /// Post-run value inspection (host-side, no simulation).
  [[nodiscard]] double value(std::string_view array, std::size_t i,
                             std::size_t j = 0) const;

  /// Base address / extents of a shared array.
  [[nodiscard]] Addr array_base(std::string_view name) const;
  [[nodiscard]] std::pair<std::size_t, std::size_t> array_dims(
      std::string_view name) const;

  /// Trace-PC <-> AST-node mapping (what the source annotator consumes).
  [[nodiscard]] PcId pc_for(AstId id) const;
  [[nodiscard]] AstId ast_for(PcId pc) const;

  [[nodiscard]] double const_value(std::string_view name) const;

 private:
  struct ArrayInfo {
    Addr base = 0;
    std::size_t d0 = 0, d1 = 1;  // d1 == 1 for 1-D arrays
    bool two_d = false;
    std::unique_ptr<double[]> data;  // one Machine, one host thread
  };

  /// Op codes.  Expressions push one value; statements leave the stack as
  /// they found it.  A subscript that is not the last one of its access
  /// is converted by an Index op right after it is evaluated, so its
  /// range check runs before the next subscript (as written).
  enum class Code : std::uint8_t {
    Num, Pid, Nprocs, Var, VarAdd,
    Neg, Not, Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Le, Gt, Ge, Min, Max,
    And, Or, Bool,  // a && b:  a And(->end) b Bool end
    Index, Dup, Span, Load, Load2,
    Set, Store, Store2, Compute, Barrier, Lock, Unlock, Directive,
    Jump, JumpIfZero, ForInit, ForNext, Fail, End,
  };

  struct Op {
    Code code = Code::End;
    std::uint32_t a = 0;  ///< frame slot, loop state or shared array
    std::uint32_t b = 0;  ///< PcId, dimension, directive kind, var slot,
                          ///< or failures_ index
    std::uint32_t c = 0;  ///< jump target, or subscript/range count
    int line = 0;         ///< source line of run-time errors
    double k = 0;         ///< Num value, VarAdd addend
  };

  /// A node's scalars by frame slot, then three slots (value, limit,
  /// step) per loop.  `set` marks the named slots written so far; a
  /// const's slot starts written with the const's value, so a private of
  /// the same name shadows it from its first write on.
  struct Frame {
    std::vector<double> vals;
    std::vector<std::uint8_t> set;

    void write(std::uint32_t slot, double v) {
      vals[slot] = v;
      set[slot] = 1;
    }
  };

  class Compiler;

  const ArrayInfo& array(std::string_view name, SrcLoc loc) const;
  /// Throws the "unknown variable" error of a Var or VarAdd op.
  [[noreturn]] void unknown_variable(const Op& op) const;

  std::unordered_map<std::string, double> consts_;
  std::vector<ArrayInfo> arrays_;  ///< declaration order
  std::unordered_map<std::string, std::uint32_t> array_of_;  ///< -> arrays_
  std::vector<Op> code_;  ///< the parallel body, ending in End
  std::vector<std::string> slot_names_;  ///< "" for loop state
  std::vector<std::string> failures_;    ///< Fail op messages
  Frame fresh_frame_;  ///< every node starts from a copy
  std::vector<PcId> pc_by_ast_;
  std::unordered_map<PcId, AstId> ast_by_pc_;
};

}  // namespace cico::lang

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
// Names are resolved once, at load time, in the same walk that interns
// the PcIds: every Var, Private, For and scalar-Assign AST id gets a
// frame slot (one per distinct scalar name), and every Index, array-Assign
// and directive/lock target id gets its shared array.  A node's id is the
// key, so clones that keep their id (the annotator's) must keep their name
// too; the load checks that.  Run-time checks stay where they were: a Var
// reads the node's value of its name -- the const of that name until the
// node first writes it -- and fails with "unknown variable" when there is
// neither; an unresolved array fails with "unknown shared array" only
// when the statement executes.
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
  /// machine's heap, interns access-site PcIds.  The Program must outlive
  /// the LoadedProgram.
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

  /// A node's scalars by frame slot.  `set` marks the slots written so
  /// far; a const's slot starts written with the const's value, so a
  /// private of the same name shadows it from its first write on.
  struct Frame {
    std::vector<double> vals;
    std::vector<std::uint8_t> set;

    void write(std::uint32_t slot, double v) {
      vals[slot] = v;
      set[slot] = 1;
    }
  };

  /// bind_ entry of an array-name node whose array is not declared.
  static constexpr std::uint32_t kUnbound = ~std::uint32_t{0};

  const ArrayInfo& array(std::string_view name, SrcLoc loc) const;
  /// The shared array AST node `id` names; fails like array() when none.
  const ArrayInfo& array_at(AstId id, const std::string& name,
                            SrcLoc loc) const;
  [[nodiscard]] Addr addr_of(const ArrayInfo& a, std::size_t i,
                             std::size_t j, SrcLoc loc) const;

  double eval(sim::Proc& p, Frame& f, const Expr& e);
  void exec_block(sim::Proc& p, Frame& f,
                  const std::vector<StmtPtr>& stmts);
  void exec(sim::Proc& p, Frame& f, const Stmt& s);
  void directive(sim::Proc& p, Frame& f, const Stmt& s);
  [[nodiscard]] std::size_t index_of(double v, std::size_t extent,
                                     SrcLoc loc) const;

  const Program* prog_;
  sim::Machine* machine_;
  std::unordered_map<std::string, double> consts_;
  std::vector<ArrayInfo> arrays_;  ///< declaration order
  std::unordered_map<std::string, std::uint32_t> array_of_;  ///< -> arrays_
  /// Per AST id: a scalar-name node's frame slot, or an array-name node's
  /// arrays_ index (kUnbound when no shared array has that name).
  std::vector<std::uint32_t> bind_;
  Frame fresh_frame_;  ///< every node starts from a copy
  std::vector<PcId> pc_by_ast_;
  std::unordered_map<PcId, AstId> ast_by_pc_;
};

}  // namespace cico::lang

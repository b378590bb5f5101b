// Static program structure: control-flow graph and loop tree.
//
// Cachier "parses the unannotated target program and constructs its
// abstract syntax tree and control flow graph" (section 3.4) and "uses
// the program's abstract syntax tree to analyze its loop structure"
// (section 4.3).  The CFG here is statement-level basic blocks with
// fall/branch/back edges; the loop tree records For-nesting and, for each
// statement, its innermost enclosing loop -- what the annotator needs to
// place and collapse annotations.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cico/lang/ast.hpp"

namespace cico::lang {

struct BasicBlock {
  std::uint32_t id = 0;
  std::vector<AstId> stmts;          ///< straight-line statement ids
  std::vector<std::uint32_t> succ;   ///< successor block ids
  std::vector<std::uint32_t> pred;   ///< predecessor block ids
};

class Cfg {
 public:
  /// Builds CFG + loop tree for the parallel body of `p`.
  explicit Cfg(const Program& p);

  [[nodiscard]] const std::vector<BasicBlock>& blocks() const { return blocks_; }
  [[nodiscard]] std::uint32_t entry() const { return 0; }
  /// The block execution falls into after the last statement (the unique
  /// block with no successors that ends the parallel body).
  [[nodiscard]] std::uint32_t exit() const { return exit_; }

  /// Innermost enclosing For statement of a statement (0 = none).
  [[nodiscard]] AstId loop_of(AstId stmt) const;

  /// Direct parent statement (For/If) of a statement, 0 if top level.
  [[nodiscard]] AstId parent_of(AstId stmt) const;

  /// All For statements, outermost first.
  [[nodiscard]] const std::vector<AstId>& loops() const { return loops_; }

  /// Barrier statements in source order.
  [[nodiscard]] const std::vector<AstId>& barriers() const { return barriers_; }

 private:
  std::uint32_t new_block();
  /// Returns the block that execution falls into after the sequence.
  std::uint32_t build_seq(const std::vector<StmtPtr>& stmts,
                          std::uint32_t cur, AstId loop, AstId parent);

  std::vector<BasicBlock> blocks_;
  std::uint32_t exit_ = 0;
  std::vector<AstId> loops_;
  std::vector<AstId> barriers_;
  std::unordered_map<AstId, AstId> loop_of_;
  std::unordered_map<AstId, AstId> parent_of_;
};

}  // namespace cico::lang

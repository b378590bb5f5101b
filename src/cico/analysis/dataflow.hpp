// Reusable dataflow framework over the MiniPar control-flow graph.
//
// The CICO typestate linter (typestate.hpp) is built on these pieces:
//
//   * CfgInfo      -- derived graph structure: reverse postorder, exit
//                     blocks, reachability;
//   * solve()      -- a direction-agnostic worklist solver parameterised
//                     by a Domain (finite lattice + transfer);
//   * StmtIndex / SharedArrays / shared_accesses() -- statement lookup and
//     shared-array access extraction shared by every client.
//
// Domain concept (duck-typed, checked at instantiation):
//
//   struct Domain {
//     using State = ...;                             // copyable
//     State init() const;                            // bottom
//     State boundary() const;                        // entry/exit value
//     bool  join(State& into, const State& from) const;   // true if grew
//     void  transfer(std::uint32_t block, State& s) const;
//   };
//
// transfer() applies the whole block in the solve direction (a backward
// domain walks the block's statements in reverse itself).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cico/lang/cfg.hpp"

namespace cico::analysis {

// ---------------------------------------------------------------------------
// Graph structure
// ---------------------------------------------------------------------------

/// Orderings and reachability derived from a Cfg.  The Cfg must outlive it.
struct CfgInfo {
  explicit CfgInfo(const lang::Cfg& cfg);

  const lang::Cfg* cfg = nullptr;
  /// Reachable blocks in reverse postorder (entry first).
  std::vector<std::uint32_t> rpo;
  /// rpo position per block id; kUnreachable for unreachable blocks.
  std::vector<std::uint32_t> rpo_pos;
  /// Reachable blocks with no successors (backward-analysis boundary).
  std::vector<std::uint32_t> exits;

  static constexpr std::uint32_t kUnreachable = 0xffffffffu;

  [[nodiscard]] bool reachable(std::uint32_t b) const {
    return b < rpo_pos.size() && rpo_pos[b] != kUnreachable;
  }
};

// ---------------------------------------------------------------------------
// Worklist solver
// ---------------------------------------------------------------------------

enum class Direction : std::uint8_t { Forward, Backward };

template <class Domain>
struct Solution {
  /// Per-block state at the block's input edge in the solve direction
  /// (block entry for forward, block exit for backward).
  std::vector<typename Domain::State> in;
  /// State after transfer (block exit for forward, block entry backward).
  std::vector<typename Domain::State> out;
};

/// Iterates to a fixpoint (the domain's lattice must be finite).
template <class Domain>
Solution<Domain> solve(const CfgInfo& info, const Domain& dom,
                       Direction dir = Direction::Forward) {
  const auto& blocks = info.cfg->blocks();
  const std::size_t n = blocks.size();
  Solution<Domain> sol;
  sol.in.assign(n, dom.init());
  sol.out.assign(n, dom.init());

  const auto inputs = [&](std::uint32_t b) -> const std::vector<std::uint32_t>& {
    return dir == Direction::Forward ? blocks[b].pred : blocks[b].succ;
  };
  const auto is_boundary = [&](std::uint32_t b) {
    if (dir == Direction::Forward) return b == info.cfg->entry();
    return blocks[b].succ.empty();
  };

  // Seed in solve order: rpo forward, reverse rpo backward.
  std::deque<std::uint32_t> worklist;
  std::vector<bool> queued(n, false);
  const auto push = [&](std::uint32_t b) {
    if (!queued[b] && info.reachable(b)) {
      queued[b] = true;
      worklist.push_back(b);
    }
  };
  if (dir == Direction::Forward) {
    for (std::uint32_t b : info.rpo) push(b);
  } else {
    for (auto it = info.rpo.rbegin(); it != info.rpo.rend(); ++it) push(*it);
  }

  std::vector<std::uint32_t> visits(n, 0);
  while (!worklist.empty()) {
    const std::uint32_t b = worklist.front();
    worklist.pop_front();
    queued[b] = false;

    typename Domain::State newin = dom.init();
    if (is_boundary(b)) newin = dom.boundary();
    for (std::uint32_t p : inputs(b)) dom.join(newin, sol.out[p]);

    ++visits[b];
    if (!dom.join(sol.in[b], newin) && visits[b] > 1) continue;

    typename Domain::State o = sol.in[b];
    dom.transfer(b, o);
    if (dom.join(sol.out[b], o)) {
      const auto& outs =
          dir == Direction::Forward ? blocks[b].succ : blocks[b].pred;
      for (std::uint32_t s : outs) push(s);
    }
  }
  return sol;
}

// ---------------------------------------------------------------------------
// Program-side helpers
// ---------------------------------------------------------------------------

/// AstId -> Stmt lookup over a whole program (decls + body, recursive).
class StmtIndex {
 public:
  explicit StmtIndex(const lang::Program& p);
  /// nullptr when the id does not name a statement.
  [[nodiscard]] const lang::Stmt* stmt(lang::AstId id) const;

 private:
  void walk(const std::vector<lang::StmtPtr>& stmts);
  std::unordered_map<lang::AstId, const lang::Stmt*> by_id_;
};

/// The program's shared arrays, in declaration order.
struct SharedArrays {
  explicit SharedArrays(const lang::Program& p);
  std::vector<std::string> names;
  /// Index into names, or -1 when `name` is not a shared array.
  [[nodiscard]] int index_of(std::string_view name) const;
  [[nodiscard]] std::size_t size() const { return names.size(); }
};

/// One shared-array access made by a statement's own expressions.
struct SharedAccess {
  std::uint32_t array = 0;  ///< index into SharedArrays::names
  bool write = false;
  lang::SrcLoc loc;         ///< the access site (expr for reads, stmt for writes)
};

/// Accesses of one statement, reads first then the write (nested
/// statements report their own accesses in their own blocks).
[[nodiscard]] std::vector<SharedAccess> shared_accesses(
    const lang::Stmt& s, const SharedArrays& arrays);

}  // namespace cico::analysis

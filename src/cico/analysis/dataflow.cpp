#include "cico/analysis/dataflow.hpp"

#include <utility>

namespace cico::analysis {

// ---------------------------------------------------------------------------
// CfgInfo
// ---------------------------------------------------------------------------

CfgInfo::CfgInfo(const lang::Cfg& c) : cfg(&c) {
  const auto& blocks = c.blocks();
  const std::size_t n = blocks.size();
  rpo_pos.assign(n, kUnreachable);

  // Iterative postorder DFS from the entry block.
  std::vector<std::uint32_t> post;
  post.reserve(n);
  std::vector<std::uint8_t> state(n, 0);  // 0 new, 1 open, 2 done
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  stack.emplace_back(c.entry(), 0);
  state[c.entry()] = 1;
  while (!stack.empty()) {
    auto& [b, next] = stack.back();
    if (next < blocks[b].succ.size()) {
      const std::uint32_t s = blocks[b].succ[next++];
      if (state[s] == 0) {
        state[s] = 1;
        stack.emplace_back(s, 0);
      }
    } else {
      state[b] = 2;
      post.push_back(b);
      stack.pop_back();
    }
  }
  rpo.assign(post.rbegin(), post.rend());
  for (std::uint32_t i = 0; i < rpo.size(); ++i) rpo_pos[rpo[i]] = i;

  for (std::uint32_t b : rpo) {
    if (blocks[b].succ.empty()) exits.push_back(b);
  }
}

// ---------------------------------------------------------------------------
// StmtIndex / SharedArrays / shared_accesses
// ---------------------------------------------------------------------------

StmtIndex::StmtIndex(const lang::Program& p) {
  walk(p.decls);
  walk(p.body);
}

void StmtIndex::walk(const std::vector<lang::StmtPtr>& stmts) {
  for (const auto& sp : stmts) {
    by_id_[sp->id] = sp.get();
    walk(sp->body);
    walk(sp->else_body);
  }
}

const lang::Stmt* StmtIndex::stmt(lang::AstId id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

SharedArrays::SharedArrays(const lang::Program& p) {
  for (const auto& d : p.decls) {
    if (d->kind == lang::StmtKind::SharedDecl) names.push_back(d->name);
  }
}

int SharedArrays::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

void collect_reads(const lang::Expr* e, const SharedArrays& arrays,
                   std::vector<SharedAccess>& out) {
  if (e == nullptr) return;
  if (e->kind == lang::ExprKind::Index) {
    const int idx = arrays.index_of(e->name);
    if (idx >= 0) {
      out.push_back({static_cast<std::uint32_t>(idx), false, e->loc});
    }
  }
  for (const auto& a : e->args) collect_reads(a.get(), arrays, out);
}

}  // namespace

std::vector<SharedAccess> shared_accesses(const lang::Stmt& s,
                                          const SharedArrays& arrays) {
  std::vector<SharedAccess> out;
  switch (s.kind) {
    case lang::StmtKind::Assign: {
      for (const auto& e : s.subs) collect_reads(e.get(), arrays, out);
      collect_reads(s.rhs.get(), arrays, out);
      if (!s.subs.empty()) {
        const int idx = arrays.index_of(s.name);
        if (idx >= 0) {
          out.push_back({static_cast<std::uint32_t>(idx), true, s.loc});
        }
      }
      break;
    }
    case lang::StmtKind::Private:
    case lang::StmtKind::Compute:
      collect_reads(s.rhs.get(), arrays, out);
      break;
    case lang::StmtKind::For:
      collect_reads(s.lo.get(), arrays, out);
      collect_reads(s.hi.get(), arrays, out);
      collect_reads(s.step.get(), arrays, out);
      break;
    case lang::StmtKind::If:
      collect_reads(s.cond.get(), arrays, out);
      break;
    default:
      break;  // decls, barriers, directives, lock/unlock: no data accesses
  }
  return out;
}

}  // namespace cico::analysis

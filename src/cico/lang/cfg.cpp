#include "cico/lang/cfg.hpp"

namespace cico::lang {

Cfg::Cfg(const Program& p) {
  new_block();  // entry
  exit_ = build_seq(p.body, 0, 0, 0);
  for (const BasicBlock& b : blocks_) {
    for (std::uint32_t s : b.succ) blocks_[s].pred.push_back(b.id);
  }
}

std::uint32_t Cfg::new_block() {
  BasicBlock b;
  b.id = static_cast<std::uint32_t>(blocks_.size());
  blocks_.push_back(std::move(b));
  return blocks_.back().id;
}

std::uint32_t Cfg::build_seq(const std::vector<StmtPtr>& stmts,
                             std::uint32_t cur, AstId loop, AstId parent) {
  for (const auto& sp : stmts) {
    const Stmt& s = *sp;
    loop_of_[s.id] = loop;
    parent_of_[s.id] = parent;
    switch (s.kind) {
      case StmtKind::For: {
        loops_.push_back(s.id);
        // header block
        const std::uint32_t header = new_block();
        blocks_[cur].succ.push_back(header);
        blocks_[header].stmts.push_back(s.id);
        const std::uint32_t body_entry = new_block();
        blocks_[header].succ.push_back(body_entry);
        const std::uint32_t body_exit =
            build_seq(s.body, body_entry, s.id, s.id);
        blocks_[body_exit].succ.push_back(header);  // back edge
        const std::uint32_t after = new_block();
        blocks_[header].succ.push_back(after);  // loop exit
        cur = after;
        break;
      }
      case StmtKind::If: {
        const std::uint32_t cond = new_block();
        blocks_[cur].succ.push_back(cond);
        blocks_[cond].stmts.push_back(s.id);
        const std::uint32_t then_entry = new_block();
        blocks_[cond].succ.push_back(then_entry);
        const std::uint32_t then_exit =
            build_seq(s.body, then_entry, loop, s.id);
        const std::uint32_t after = new_block();
        blocks_[then_exit].succ.push_back(after);
        if (s.else_body.empty()) {
          blocks_[cond].succ.push_back(after);
        } else {
          const std::uint32_t else_entry = new_block();
          blocks_[cond].succ.push_back(else_entry);
          const std::uint32_t else_exit =
              build_seq(s.else_body, else_entry, loop, s.id);
          blocks_[else_exit].succ.push_back(after);
        }
        cur = after;
        break;
      }
      case StmtKind::Barrier:
        barriers_.push_back(s.id);
        // A barrier ends the block (it is a global synchronization point).
        blocks_[cur].stmts.push_back(s.id);
        {
          const std::uint32_t after = new_block();
          blocks_[cur].succ.push_back(after);
          cur = after;
        }
        break;
      default:
        blocks_[cur].stmts.push_back(s.id);
        break;
    }
  }
  return cur;
}

AstId Cfg::loop_of(AstId stmt) const {
  auto it = loop_of_.find(stmt);
  return it == loop_of_.end() ? 0 : it->second;
}

AstId Cfg::parent_of(AstId stmt) const {
  auto it = parent_of_.find(stmt);
  return it == parent_of_.end() ? 0 : it->second;
}

}  // namespace cico::lang

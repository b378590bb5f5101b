#include "cico/lang/interp.hpp"

#include <cmath>
#include <functional>
#include <sstream>

namespace cico::lang {

namespace {

[[noreturn]] void fail(const std::string& msg, SrcLoc loc) {
  std::ostringstream os;
  os << msg << " (line " << loc.line << ")";
  throw InterpError(os.str());
}

/// Evaluates a declaration-context expression (consts only: no pid, no
/// arrays).
double eval_const(const Expr& e,
                  const std::unordered_map<std::string, double>& consts) {
  switch (e.kind) {
    case ExprKind::Number:
      return e.number;
    case ExprKind::Var: {
      auto it = consts.find(e.name);
      if (it == consts.end()) fail("unknown const '" + e.name + "'", e.loc);
      return it->second;
    }
    case ExprKind::Unary: {
      const double v = eval_const(*e.args[0], consts);
      return e.uop == UnOp::Neg ? -v : (v == 0.0 ? 1.0 : 0.0);
    }
    case ExprKind::Binary: {
      const double a = eval_const(*e.args[0], consts);
      const double b = eval_const(*e.args[1], consts);
      switch (e.bop) {
        case BinOp::Add: return a + b;
        case BinOp::Sub: return a - b;
        case BinOp::Mul: return a * b;
        case BinOp::Div: return a / b;
        case BinOp::Mod: return std::fmod(a, b);
        default: fail("operator not allowed in const expression", e.loc);
      }
    }
    case ExprKind::MinMax: {
      const double a = eval_const(*e.args[0], consts);
      const double b = eval_const(*e.args[1], consts);
      return e.is_min ? std::min(a, b) : std::max(a, b);
    }
    default:
      fail("expression not allowed in a declaration", e.loc);
  }
}

}  // namespace

LoadedProgram::LoadedProgram(const Program& src, sim::Machine& m)
    : prog_(&src), machine_(&m) {
  // Declarations.
  for (const auto& d : src.decls) {
    if (d->kind == StmtKind::ConstDecl) {
      consts_[d->name] = eval_const(*d->rhs, consts_);
    } else if (d->kind == StmtKind::SharedDecl) {
      ArrayInfo info;
      info.d0 = static_cast<std::size_t>(eval_const(*d->dims[0], consts_));
      if (d->dims.size() > 1) {
        info.two_d = true;
        info.d1 = static_cast<std::size_t>(eval_const(*d->dims[1], consts_));
      }
      if (info.d0 == 0 || info.d1 == 0) {
        fail("zero-sized array '" + d->name + "'", d->loc);
      }
      const std::size_t n = info.d0 * info.d1;
      info.base = m.heap().alloc(n * sizeof(double), d->name);
      info.data = std::make_unique<double[]>(n);
      const auto next = static_cast<std::uint32_t>(arrays_.size());
      if (array_of_.try_emplace(d->name, next).second) {
        arrays_.push_back(std::move(info));
      }
    }
  }
  // Access-site PcIds, one per AST id, named by source location so trace
  // records and sharing reports read like the paper's "lines in the
  // program text".  Nodes without a recorded location (synthesized ones)
  // fall back to their id.  The same walk binds every named node's id
  // (see the header comment).
  pc_by_ast_.assign(src.next_id, kNoPc);
  std::unordered_map<AstId, SrcLoc> locs;
  std::unordered_map<std::string, std::uint32_t> slot_of;
  std::vector<const std::string*> name_of(src.next_id, nullptr);
  bind_.assign(src.next_id, kUnbound);
  auto bind = [&](AstId id, const std::string& name, std::uint32_t to) {
    if (name_of[id] != nullptr && *name_of[id] != name) {
      throw InterpError("AST id " + std::to_string(id) + " names both '" +
                        *name_of[id] + "' and '" + name + "'");
    }
    name_of[id] = &name;
    bind_[id] = to;
  };
  auto bind_scalar = [&](AstId id, const std::string& name) {
    const auto next = static_cast<std::uint32_t>(slot_of.size());
    bind(id, name, slot_of.try_emplace(name, next).first->second);
  };
  auto bind_array = [&](AstId id, const std::string& name) {
    const auto at = array_of_.find(name);
    bind(id, name, at != array_of_.end() ? at->second : kUnbound);
  };
  // Directive ranges are bound but never located: their PcIds keep line 0.
  std::function<void(const Expr&, bool)> walk_expr = [&](const Expr& e,
                                                         bool locate) {
    if (locate) locs[e.id] = e.loc;
    if (e.kind == ExprKind::Var) bind_scalar(e.id, e.name);
    if (e.kind == ExprKind::Index) bind_array(e.id, e.name);
    for (const auto& a : e.args) walk_expr(*a, locate);
  };
  std::function<void(const std::vector<StmtPtr>&)> walk =
      [&](const std::vector<StmtPtr>& stmts) {
        for (const auto& sp : stmts) {
          locs[sp->id] = sp->loc;
          if (sp->kind == StmtKind::Private || sp->kind == StmtKind::For ||
              (sp->kind == StmtKind::Assign && sp->subs.empty())) {
            bind_scalar(sp->id, sp->name);
          } else if (sp->kind == StmtKind::Assign) {
            bind_array(sp->id, sp->name);
          }
          for (const auto* e :
               {sp->rhs.get(), sp->lo.get(), sp->hi.get(), sp->step.get(),
                sp->cond.get()}) {
            if (e != nullptr) walk_expr(*e, true);
          }
          for (const auto& e : sp->dims) walk_expr(*e, true);
          for (const auto& e : sp->subs) walk_expr(*e, true);
          if (sp->ref) {
            bind_array(sp->ref->id, sp->ref->name);
            for (const auto& r : sp->ref->ranges) {
              walk_expr(*r.lo, false);
              if (r.hi) walk_expr(*r.hi, false);
            }
          }
          walk(sp->body);
          walk(sp->else_body);
        }
      };
  walk(src.decls);
  walk(src.body);
  fresh_frame_.vals.assign(slot_of.size(), 0.0);
  fresh_frame_.set.assign(slot_of.size(), 0);
  for (const auto& [name, slot] : slot_of) {
    const auto ct = consts_.find(name);
    if (ct != consts_.end()) fresh_frame_.write(slot, ct->second);
  }
  // Release the walk's scratch before the long-lived PcId map is built
  // on top of it.
  slot_of = {};
  name_of = {};
  for (AstId i = 1; i < src.next_id; ++i) {
    const auto it = locs.find(i);
    const int line = it != locs.end() ? it->second.line : 0;
    const PcId pc = m.pcs().intern("minipar", line,
                                   "node" + std::to_string(i));
    pc_by_ast_[i] = pc;
    ast_by_pc_[pc] = i;
  }
}

const LoadedProgram::ArrayInfo& LoadedProgram::array(std::string_view name,
                                                     SrcLoc loc) const {
  auto it = array_of_.find(std::string(name));
  if (it == array_of_.end()) {
    fail("unknown shared array '" + std::string(name) + "'", loc);
  }
  return arrays_[it->second];
}

const LoadedProgram::ArrayInfo& LoadedProgram::array_at(
    AstId id, const std::string& name, SrcLoc loc) const {
  const std::uint32_t a = bind_[id];
  if (a == kUnbound) fail("unknown shared array '" + name + "'", loc);
  return arrays_[a];
}

Addr LoadedProgram::addr_of(const ArrayInfo& a, std::size_t i, std::size_t j,
                            SrcLoc loc) const {
  if (i >= a.d0 || j >= a.d1) fail("array subscript out of range", loc);
  return a.base + (i * a.d1 + j) * sizeof(double);
}

std::size_t LoadedProgram::index_of(double v, std::size_t extent,
                                    SrcLoc loc) const {
  const auto i = static_cast<long long>(std::llround(v));
  if (i < 0 || static_cast<std::size_t>(i) >= extent) {
    fail("array subscript out of range", loc);
  }
  return static_cast<std::size_t>(i);
}

double LoadedProgram::eval(sim::Proc& p, Frame& f, const Expr& e) {
  switch (e.kind) {
    case ExprKind::Number:
      return e.number;
    case ExprKind::Pid:
      return static_cast<double>(p.id());
    case ExprKind::Nprocs:
      return static_cast<double>(p.nprocs());
    case ExprKind::Var: {
      const std::uint32_t slot = bind_[e.id];
      if (f.set[slot] != 0) return f.vals[slot];
      fail("unknown variable '" + e.name + "'", e.loc);
    }
    case ExprKind::Index: {
      const ArrayInfo& a = array_at(e.id, e.name, e.loc);
      const std::size_t i = index_of(eval(p, f, *e.args[0]), a.d0, e.loc);
      const std::size_t j =
          e.args.size() > 1 ? index_of(eval(p, f, *e.args[1]), a.d1, e.loc)
                            : 0;
      if (e.args.size() > 1 && !a.two_d) fail("1-D array indexed 2-D", e.loc);
      const Addr addr = addr_of(a, i, j, e.loc);
      p.ld(addr, sizeof(double), pc_by_ast_[e.id]);
      return a.data[i * a.d1 + j];
    }
    case ExprKind::Unary: {
      const double v = eval(p, f, *e.args[0]);
      return e.uop == UnOp::Neg ? -v : (v == 0.0 ? 1.0 : 0.0);
    }
    case ExprKind::Binary: {
      // && and || short-circuit (no second-operand memory traffic).
      if (e.bop == BinOp::And) {
        return eval(p, f, *e.args[0]) != 0.0 && eval(p, f, *e.args[1]) != 0.0
                   ? 1.0
                   : 0.0;
      }
      if (e.bop == BinOp::Or) {
        return eval(p, f, *e.args[0]) != 0.0 || eval(p, f, *e.args[1]) != 0.0
                   ? 1.0
                   : 0.0;
      }
      const double a = eval(p, f, *e.args[0]);
      const double b = eval(p, f, *e.args[1]);
      switch (e.bop) {
        case BinOp::Add: return a + b;
        case BinOp::Sub: return a - b;
        case BinOp::Mul: return a * b;
        case BinOp::Div: return a / b;
        case BinOp::Mod: return std::fmod(a, b);
        case BinOp::Eq: return a == b ? 1.0 : 0.0;
        case BinOp::Ne: return a != b ? 1.0 : 0.0;
        case BinOp::Lt: return a < b ? 1.0 : 0.0;
        case BinOp::Le: return a <= b ? 1.0 : 0.0;
        case BinOp::Gt: return a > b ? 1.0 : 0.0;
        case BinOp::Ge: return a >= b ? 1.0 : 0.0;
        case BinOp::And:
        case BinOp::Or: break;  // handled above
      }
      return 0.0;
    }
    case ExprKind::MinMax: {
      const double a = eval(p, f, *e.args[0]);
      const double b = eval(p, f, *e.args[1]);
      return e.is_min ? std::min(a, b) : std::max(a, b);
    }
  }
  return 0.0;
}

void LoadedProgram::directive(sim::Proc& p, Frame& f, const Stmt& s) {
  const ArrayRef& r = *s.ref;
  const ArrayInfo& a = array_at(r.id, r.name, r.loc);

  auto bounds = [&](const RangeExpr& re, std::size_t extent) {
    const std::size_t lo = index_of(eval(p, f, *re.lo), extent, r.loc);
    const std::size_t hi =
        re.hi ? index_of(eval(p, f, *re.hi), extent, r.loc) : lo;
    if (hi < lo) fail("empty range in directive", r.loc);
    return std::pair{lo, hi};
  };

  // Resolve to one contiguous byte span per row (row-major layout).
  std::vector<std::pair<Addr, std::uint64_t>> spans;
  if (!a.two_d || r.ranges.size() == 1) {
    auto [lo, hi] = bounds(r.ranges[0], a.two_d ? a.d0 : a.d0 * a.d1);
    if (!a.two_d) {
      spans.emplace_back(addr_of(a, lo, 0, r.loc),
                         (hi - lo + 1) * sizeof(double));
    } else {
      // A[lo:hi] on a 2-D array: whole rows.
      spans.emplace_back(addr_of(a, lo, 0, r.loc),
                         (hi - lo + 1) * a.d1 * sizeof(double));
    }
  } else {
    auto [rlo, rhi] = bounds(r.ranges[0], a.d0);
    auto [clo, chi] = bounds(r.ranges[1], a.d1);
    for (std::size_t i = rlo; i <= rhi; ++i) {
      spans.emplace_back(addr_of(a, i, clo, r.loc),
                         (chi - clo + 1) * sizeof(double));
    }
  }

  for (auto [addr, bytes] : spans) {
    switch (s.dir) {
      case sim::DirectiveKind::CheckOutX: p.check_out_x(addr, bytes); break;
      case sim::DirectiveKind::CheckOutS: p.check_out_s(addr, bytes); break;
      case sim::DirectiveKind::CheckIn: p.check_in(addr, bytes); break;
      case sim::DirectiveKind::PrefetchX: p.prefetch_x(addr, bytes); break;
      case sim::DirectiveKind::PrefetchS: p.prefetch_s(addr, bytes); break;
    }
  }
}

void LoadedProgram::exec(sim::Proc& p, Frame& f, const Stmt& s) {
  switch (s.kind) {
    case StmtKind::SharedDecl:
    case StmtKind::ConstDecl:
      return;  // handled at load time
    case StmtKind::Private:
      f.write(bind_[s.id], eval(p, f, *s.rhs));
      return;
    case StmtKind::Assign: {
      const double v = eval(p, f, *s.rhs);
      if (s.subs.empty()) {
        // Scalar target: private variable (create on first write).
        f.write(bind_[s.id], v);
        return;
      }
      const ArrayInfo& a = array_at(s.id, s.name, s.loc);
      const std::size_t i = index_of(eval(p, f, *s.subs[0]), a.d0, s.loc);
      const std::size_t j =
          s.subs.size() > 1 ? index_of(eval(p, f, *s.subs[1]), a.d1, s.loc)
                            : 0;
      const Addr addr = addr_of(a, i, j, s.loc);
      p.st(addr, sizeof(double), pc_by_ast_[s.id]);
      a.data[i * a.d1 + j] = v;
      p.compute(1);
      return;
    }
    case StmtKind::For: {
      const double lo = eval(p, f, *s.lo);
      const double hi = eval(p, f, *s.hi);
      const double step = s.step ? eval(p, f, *s.step) : 1.0;
      if (step == 0.0) fail("zero loop step", s.loc);
      const std::uint32_t slot = bind_[s.id];
      for (double v = lo; step > 0 ? v <= hi : v >= hi; v += step) {
        f.write(slot, v);
        exec_block(p, f, s.body);
        p.compute(1);
      }
      return;
    }
    case StmtKind::If:
      if (eval(p, f, *s.cond) != 0.0) {
        exec_block(p, f, s.body);
      } else {
        exec_block(p, f, s.else_body);
      }
      return;
    case StmtKind::Barrier:
      p.barrier(pc_by_ast_[s.id]);
      return;
    case StmtKind::Lock:
    case StmtKind::Unlock: {
      const ArrayRef& r = *s.ref;
      const ArrayInfo& a = array_at(r.id, r.name, r.loc);
      const std::size_t i =
          index_of(eval(p, f, *r.ranges[0].lo), a.d0, r.loc);
      const std::size_t j =
          r.ranges.size() > 1
              ? index_of(eval(p, f, *r.ranges[1].lo), a.d1, r.loc)
              : 0;
      const Addr addr = addr_of(a, i, j, r.loc);
      if (s.kind == StmtKind::Lock) p.lock(addr);
      else p.unlock(addr);
      return;
    }
    case StmtKind::Directive:
      directive(p, f, s);
      return;
    case StmtKind::Compute:
      p.compute(static_cast<Cycle>(std::llround(eval(p, f, *s.rhs))));
      return;
  }
}

void LoadedProgram::exec_block(sim::Proc& p, Frame& f,
                               const std::vector<StmtPtr>& stmts) {
  for (const auto& s : stmts) exec(p, f, *s);
}

void LoadedProgram::run_node(sim::Proc& p) {
  Frame f = fresh_frame_;
  exec_block(p, f, prog_->body);
}

double LoadedProgram::value(std::string_view name, std::size_t i,
                            std::size_t j) const {
  const ArrayInfo& a = array(name, SrcLoc{});
  if (i >= a.d0 || j >= a.d1) throw InterpError("value(): out of range");
  return a.data[i * a.d1 + j];
}

Addr LoadedProgram::array_base(std::string_view name) const {
  return array(name, SrcLoc{}).base;
}

std::pair<std::size_t, std::size_t> LoadedProgram::array_dims(
    std::string_view name) const {
  const ArrayInfo& a = array(name, SrcLoc{});
  return {a.d0, a.d1};
}

PcId LoadedProgram::pc_for(AstId id) const {
  return id < pc_by_ast_.size() ? pc_by_ast_[id] : kNoPc;
}

AstId LoadedProgram::ast_for(PcId pc) const {
  auto it = ast_by_pc_.find(pc);
  return it == ast_by_pc_.end() ? 0 : it->second;
}

double LoadedProgram::const_value(std::string_view name) const {
  auto it = consts_.find(std::string(name));
  if (it == consts_.end()) throw InterpError("unknown const");
  return it->second;
}

}  // namespace cico::lang

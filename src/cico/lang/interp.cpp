#include "cico/lang/interp.hpp"

#include <cmath>
#include <functional>

namespace cico::lang {

namespace {

std::string at_line(const std::string& msg, int line) {
  return msg + " (line " + std::to_string(line) + ")";
}

[[noreturn]] void fail(const std::string& msg, int line) {
  throw InterpError(at_line(msg, line));
}

/// index_of() for a subscript that is not a whole number in range: it
/// rounds half away from zero, as llround does, and must land in
/// [0, limit).  NaN and infinities never do.  Kept out of line so the
/// whole-number test inlines into every op that indexes.
[[gnu::noinline]] std::size_t rounded_index(double v, double limit,
                                            int line) {
  const double r = std::round(v);
  if (!(r >= 0.0 && r < limit)) fail("array subscript out of range", line);
  return static_cast<std::size_t>(r);
}

/// A subscript's element index.  A whole number in range -- what every
/// well-formed program computes -- is used as is.  Extents are far below
/// 2^63, so the in-range value converts as a signed integer.
[[gnu::always_inline]] inline std::size_t index_of(double v,
                                                   std::size_t extent,
                                                   int line) {
  const auto limit = static_cast<double>(extent);
  if (v >= 0.0 && v < limit) {
    const auto i = static_cast<std::int64_t>(v);
    if (static_cast<double>(i) == v) return static_cast<std::size_t>(i);
  }
  return rounded_index(v, limit, line);
}

void issue(sim::Proc& p, sim::DirectiveKind kind, Addr addr,
           std::uint64_t bytes) {
  switch (kind) {
    case sim::DirectiveKind::CheckOutX: p.check_out_x(addr, bytes); break;
    case sim::DirectiveKind::CheckOutS: p.check_out_s(addr, bytes); break;
    case sim::DirectiveKind::CheckIn: p.check_in(addr, bytes); break;
    case sim::DirectiveKind::PrefetchX: p.prefetch_x(addr, bytes); break;
    case sim::DirectiveKind::PrefetchS: p.prefetch_s(addr, bytes); break;
  }
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
      if (it == consts.end()) {
        fail("unknown const '" + e.name + "'", e.loc.line);
      }
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
        default: fail("operator not allowed in const expression", e.loc.line);
      }
    }
    case ExprKind::MinMax: {
      const double a = eval_const(*e.args[0], consts);
      const double b = eval_const(*e.args[1], consts);
      return e.is_min ? std::min(a, b) : std::max(a, b);
    }
    default:
      fail("expression not allowed in a declaration", e.loc.line);
  }
}

}  // namespace

/// Compiles the parallel body into LoadedProgram::code_ (see the header).
class LoadedProgram::Compiler {
 public:
  explicit Compiler(LoadedProgram& lp) : lp_(lp) {}

  /// Compiles the parallel body; code_ then ends in End.
  void body(const std::vector<StmtPtr>& stmts) {
    block(stmts);
    emit({.code = Code::End});
  }

 private:
  /// array() result for a name no shared array declares.
  static constexpr std::uint32_t kUnbound = ~std::uint32_t{0};

  std::uint32_t emit(Op op) {
    lp_.code_.push_back(op);
    return static_cast<std::uint32_t>(lp_.code_.size() - 1);
  }
  /// Points jump `at` at the next op emitted.
  void land(std::uint32_t at) {
    lp_.code_[at].c = static_cast<std::uint32_t>(lp_.code_.size());
  }
  void fail(const std::string& msg, SrcLoc loc) {
    lp_.failures_.push_back(at_line(msg, loc.line));
    emit({.code = Code::Fail,
          .b = static_cast<std::uint32_t>(lp_.failures_.size() - 1)});
  }

  std::uint32_t slot(const std::string& name) {
    const auto next = static_cast<std::uint32_t>(lp_.slot_names_.size());
    const auto [it, fresh] = slot_of_.try_emplace(name, next);
    if (fresh) lp_.slot_names_.push_back(name);
    return it->second;
  }
  /// The array `name` names; emits the "unknown shared array" failure and
  /// returns kUnbound when no shared array has that name.
  std::uint32_t array(const std::string& name, SrcLoc loc) {
    const auto it = lp_.array_of_.find(name);
    if (it != lp_.array_of_.end()) return it->second;
    fail("unknown shared array '" + name + "'", loc);
    return kUnbound;
  }
  PcId pc(AstId id) const { return lp_.pc_by_ast_[id]; }

  /// A subscript that another one follows: converted at once.
  void index(const Expr& e, std::uint32_t arr, std::uint32_t dim,
             SrcLoc loc) {
    expr(e);
    emit({.code = Code::Index, .a = arr, .b = dim, .line = loc.line});
  }
  /// A directive range: pushes its first and last index.
  void range(const RangeExpr& r, std::uint32_t arr, std::uint32_t dim,
             SrcLoc loc) {
    index(*r.lo, arr, dim, loc);
    if (r.hi == nullptr) {
      emit({.code = Code::Dup});
      return;
    }
    index(*r.hi, arr, dim, loc);
    emit({.code = Code::Span, .line = loc.line});
  }

  void expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::Number:
        emit({.code = Code::Num, .k = e.number});
        return;
      case ExprKind::Pid:
        emit({.code = Code::Pid});
        return;
      case ExprKind::Nprocs:
        emit({.code = Code::Nprocs});
        return;
      case ExprKind::Var:
        emit({.code = Code::Var, .a = slot(e.name), .line = e.loc.line});
        return;
      case ExprKind::Index: {
        const std::uint32_t arr = array(e.name, e.loc);
        if (arr == kUnbound) return;
        if (e.args.size() == 1) {
          expr(*e.args[0]);
          emit({.code = Code::Load, .a = arr, .b = pc(e.id),
                .line = e.loc.line});
          return;
        }
        index(*e.args[0], arr, 0, e.loc);
        if (lp_.arrays_[arr].two_d) {
          expr(*e.args[1]);
          emit({.code = Code::Load2, .a = arr, .b = pc(e.id),
                .line = e.loc.line});
        } else {
          index(*e.args[1], arr, 1, e.loc);
          fail("1-D array indexed 2-D", e.loc);
        }
        return;
      }
      case ExprKind::Unary:
        expr(*e.args[0]);
        emit({.code = e.uop == UnOp::Neg ? Code::Neg : Code::Not});
        return;
      case ExprKind::Binary:
        binary(e);
        return;
      case ExprKind::MinMax:
        expr(*e.args[0]);
        expr(*e.args[1]);
        emit({.code = e.is_min ? Code::Min : Code::Max});
        return;
    }
  }

  void binary(const Expr& e) {
    const Expr& lhs = *e.args[0];
    const Expr& rhs = *e.args[1];
    if (e.bop == BinOp::And || e.bop == BinOp::Or) {
      // Short circuit: no second-operand memory traffic.
      expr(lhs);
      const std::uint32_t at =
          emit({.code = e.bop == BinOp::And ? Code::And : Code::Or});
      expr(rhs);
      emit({.code = Code::Bool});
      land(at);
      return;
    }
    if ((e.bop == BinOp::Add || e.bop == BinOp::Sub) &&
        lhs.kind == ExprKind::Var && rhs.kind == ExprKind::Number) {
      // x - n == x + (-n) exactly in IEEE arithmetic.
      emit({.code = Code::VarAdd, .a = slot(lhs.name),
            .line = lhs.loc.line,
            .k = e.bop == BinOp::Add ? rhs.number : -rhs.number});
      return;
    }
    expr(lhs);
    expr(rhs);
    Code c = Code::Add;
    switch (e.bop) {
      case BinOp::Add: c = Code::Add; break;
      case BinOp::Sub: c = Code::Sub; break;
      case BinOp::Mul: c = Code::Mul; break;
      case BinOp::Div: c = Code::Div; break;
      case BinOp::Mod: c = Code::Mod; break;
      case BinOp::Eq: c = Code::Eq; break;
      case BinOp::Ne: c = Code::Ne; break;
      case BinOp::Lt: c = Code::Lt; break;
      case BinOp::Le: c = Code::Le; break;
      case BinOp::Gt: c = Code::Gt; break;
      case BinOp::Ge: c = Code::Ge; break;
      case BinOp::And:
      case BinOp::Or: break;  // handled above
    }
    emit({.code = c});
  }

  void block(const std::vector<StmtPtr>& stmts) {
    for (const auto& s : stmts) stmt(*s);
  }

  void stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::SharedDecl:
      case StmtKind::ConstDecl:
        return;  // handled at load time
      case StmtKind::Private:
        expr(*s.rhs);
        emit({.code = Code::Set, .a = slot(s.name)});
        return;
      case StmtKind::Assign:
        assign(s);
        return;
      case StmtKind::For: {
        expr(*s.lo);
        expr(*s.hi);
        if (s.step) {
          expr(*s.step);
        } else {
          emit({.code = Code::Num, .k = 1.0});
        }
        const auto state = static_cast<std::uint32_t>(lp_.slot_names_.size());
        lp_.slot_names_.resize(state + 3);
        const std::uint32_t var = slot(s.name);
        const std::uint32_t init = emit(
            {.code = Code::ForInit, .a = state, .b = var, .line = s.loc.line});
        block(s.body);
        emit({.code = Code::ForNext, .a = state, .b = var, .c = init + 1});
        land(init);
        return;
      }
      case StmtKind::If: {
        expr(*s.cond);
        const std::uint32_t to_else = emit({.code = Code::JumpIfZero});
        block(s.body);
        if (s.else_body.empty()) {
          land(to_else);
          return;
        }
        const std::uint32_t to_end = emit({.code = Code::Jump});
        land(to_else);
        block(s.else_body);
        land(to_end);
        return;
      }
      case StmtKind::Barrier:
        emit({.code = Code::Barrier, .b = pc(s.id)});
        return;
      case StmtKind::Lock:
      case StmtKind::Unlock: {
        const ArrayRef& r = *s.ref;
        const std::uint32_t arr = array(r.name, r.loc);
        if (arr == kUnbound) return;
        // Only the first index of each range names the lock's element.
        for (std::uint32_t d = 0; d < r.ranges.size(); ++d) {
          index(*r.ranges[d].lo, arr, d, r.loc);
        }
        emit({.code = s.kind == StmtKind::Lock ? Code::Lock : Code::Unlock,
              .a = arr,
              .c = static_cast<std::uint32_t>(r.ranges.size())});
        return;
      }
      case StmtKind::Directive: {
        const ArrayRef& r = *s.ref;
        const std::uint32_t arr = array(r.name, r.loc);
        if (arr == kUnbound) return;
        // A[lo:hi] on a 2-D array means whole rows; a second range on a
        // 1-D array is ignored.
        const std::uint32_t n =
            lp_.arrays_[arr].two_d && r.ranges.size() > 1 ? 2 : 1;
        for (std::uint32_t d = 0; d < n; ++d) range(r.ranges[d], arr, d, r.loc);
        emit({.code = Code::Directive, .a = arr,
              .b = static_cast<std::uint32_t>(s.dir), .c = n});
        return;
      }
      case StmtKind::Compute:
        expr(*s.rhs);
        emit({.code = Code::Compute});
        return;
    }
  }

  void assign(const Stmt& s) {
    expr(*s.rhs);
    if (s.subs.empty()) {
      // Scalar target: private variable (create on first write).
      emit({.code = Code::Set, .a = slot(s.name)});
      return;
    }
    const std::uint32_t arr = array(s.name, s.loc);
    if (arr == kUnbound) return;
    if (s.subs.size() == 1) {
      expr(*s.subs[0]);
      emit({.code = Code::Store, .a = arr, .b = pc(s.id), .line = s.loc.line});
      return;
    }
    index(*s.subs[0], arr, 0, s.loc);
    expr(*s.subs[1]);
    emit({.code = Code::Store2, .a = arr, .b = pc(s.id), .line = s.loc.line});
  }

  LoadedProgram& lp_;
  std::unordered_map<std::string, std::uint32_t> slot_of_;
};

LoadedProgram::LoadedProgram(const Program& src, sim::Machine& m) {
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
        fail("zero-sized array '" + d->name + "'", d->loc.line);
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
  // fall back to their id.  The same walk checks that every named id
  // names one name (see the header comment).
  pc_by_ast_.assign(src.next_id, kNoPc);
  std::unordered_map<AstId, SrcLoc> locs;
  std::vector<const std::string*> name_of(src.next_id, nullptr);
  auto named = [&](AstId id, const std::string& name) {
    if (name_of[id] != nullptr && *name_of[id] != name) {
      throw InterpError("AST id " + std::to_string(id) + " names both '" +
                        *name_of[id] + "' and '" + name + "'");
    }
    name_of[id] = &name;
  };
  // Directive ranges are checked but never located: their PcIds keep line 0.
  std::function<void(const Expr&, bool)> walk_expr = [&](const Expr& e,
                                                         bool locate) {
    if (locate) locs[e.id] = e.loc;
    if (e.kind == ExprKind::Var || e.kind == ExprKind::Index) {
      named(e.id, e.name);
    }
    for (const auto& a : e.args) walk_expr(*a, locate);
  };
  std::function<void(const std::vector<StmtPtr>&)> walk =
      [&](const std::vector<StmtPtr>& stmts) {
        for (const auto& sp : stmts) {
          locs[sp->id] = sp->loc;
          if (sp->kind == StmtKind::Private || sp->kind == StmtKind::For ||
              sp->kind == StmtKind::Assign) {
            named(sp->id, sp->name);
          }
          for (const auto* e :
               {sp->rhs.get(), sp->lo.get(), sp->hi.get(), sp->step.get(),
                sp->cond.get()}) {
            if (e != nullptr) walk_expr(*e, true);
          }
          for (const auto& e : sp->dims) walk_expr(*e, true);
          for (const auto& e : sp->subs) walk_expr(*e, true);
          if (sp->ref) {
            named(sp->ref->id, sp->ref->name);
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
  name_of = {};
  for (AstId i = 1; i < src.next_id; ++i) {
    const auto it = locs.find(i);
    const int line = it != locs.end() ? it->second.line : 0;
    const PcId pc = m.pcs().intern("minipar", line,
                                   "node" + std::to_string(i));
    pc_by_ast_[i] = pc;
    ast_by_pc_[pc] = i;
  }

  Compiler(*this).body(src.body);
  const std::size_t slots = slot_names_.size();
  fresh_frame_.vals.assign(slots, 0.0);
  fresh_frame_.set.assign(slots, 0);
  for (std::uint32_t s = 0; s < slots; ++s) {
    const auto ct = consts_.find(slot_names_[s]);
    if (ct != consts_.end()) fresh_frame_.write(s, ct->second);
  }
}

void LoadedProgram::unknown_variable(const Op& op) const {
  fail("unknown variable '" + slot_names_[op.a] + "'", op.line);
}

const LoadedProgram::ArrayInfo& LoadedProgram::array(std::string_view name,
                                                     SrcLoc loc) const {
  auto it = array_of_.find(std::string(name));
  if (it == array_of_.end()) {
    fail("unknown shared array '" + std::string(name) + "'", loc.line);
  }
  return arrays_[it->second];
}

void LoadedProgram::run_node(sim::Proc& p) {
  Frame f = fresh_frame_;
  // Statements leave the stack empty and no jump inside an expression
  // goes backwards, so it never holds more values than there are ops.
  std::vector<double> stack(code_.size());
  double* sp = stack.data();  // one past the top
  const auto in_loop = [](const double* l) {  // value, limit, step
    return l[2] > 0 ? l[0] <= l[1] : l[0] >= l[1];
  };
  for (std::size_t pc = 0;;) {
    const Op& op = code_[pc++];
    switch (op.code) {
      case Code::Num: *sp++ = op.k; break;
      case Code::Pid: *sp++ = static_cast<double>(p.id()); break;
      case Code::Nprocs: *sp++ = static_cast<double>(p.nprocs()); break;
      case Code::Var:
        if (f.set[op.a] == 0) unknown_variable(op);
        *sp++ = f.vals[op.a];
        break;
      case Code::VarAdd:
        if (f.set[op.a] == 0) unknown_variable(op);
        *sp++ = f.vals[op.a] + op.k;
        break;
      case Code::Neg: sp[-1] = -sp[-1]; break;
      case Code::Not: sp[-1] = sp[-1] == 0.0 ? 1.0 : 0.0; break;
      case Code::Add: --sp; sp[-1] += sp[0]; break;
      case Code::Sub: --sp; sp[-1] -= sp[0]; break;
      case Code::Mul: --sp; sp[-1] *= sp[0]; break;
      case Code::Div: --sp; sp[-1] /= sp[0]; break;
      case Code::Mod: --sp; sp[-1] = std::fmod(sp[-1], sp[0]); break;
      case Code::Eq: --sp; sp[-1] = sp[-1] == sp[0] ? 1.0 : 0.0; break;
      case Code::Ne: --sp; sp[-1] = sp[-1] != sp[0] ? 1.0 : 0.0; break;
      case Code::Lt: --sp; sp[-1] = sp[-1] < sp[0] ? 1.0 : 0.0; break;
      case Code::Le: --sp; sp[-1] = sp[-1] <= sp[0] ? 1.0 : 0.0; break;
      case Code::Gt: --sp; sp[-1] = sp[-1] > sp[0] ? 1.0 : 0.0; break;
      case Code::Ge: --sp; sp[-1] = sp[-1] >= sp[0] ? 1.0 : 0.0; break;
      case Code::Min: --sp; sp[-1] = std::min(sp[-1], sp[0]); break;
      case Code::Max: --sp; sp[-1] = std::max(sp[-1], sp[0]); break;
      case Code::And:
        if (sp[-1] == 0.0) {
          sp[-1] = 0.0;
          pc = op.c;
        } else {
          --sp;
        }
        break;
      case Code::Or:
        if (sp[-1] != 0.0) {
          sp[-1] = 1.0;
          pc = op.c;
        } else {
          --sp;
        }
        break;
      case Code::Bool: sp[-1] = sp[-1] != 0.0 ? 1.0 : 0.0; break;
      case Code::Index: {
        const ArrayInfo& a = arrays_[op.a];
        sp[-1] = static_cast<double>(
            index_of(sp[-1], op.b == 0 ? a.d0 : a.d1, op.line));
        break;
      }
      case Code::Dup: sp[0] = sp[-1]; ++sp; break;
      case Code::Span:
        if (sp[-1] < sp[-2]) fail("empty range in directive", op.line);
        break;
      case Code::Load: {
        const ArrayInfo& a = arrays_[op.a];
        const std::size_t e = index_of(sp[-1], a.d0, op.line) * a.d1;
        p.ld(a.base + e * sizeof(double), sizeof(double), op.b);
        sp[-1] = a.data[e];
        break;
      }
      case Code::Load2: {
        const ArrayInfo& a = arrays_[op.a];
        const std::size_t j = index_of(sp[-1], a.d1, op.line);
        --sp;
        const std::size_t e = static_cast<std::size_t>(sp[-1]) * a.d1 + j;
        p.ld(a.base + e * sizeof(double), sizeof(double), op.b);
        sp[-1] = a.data[e];
        break;
      }
      case Code::Set: f.write(op.a, *--sp); break;
      case Code::Store:
      case Code::Store2: {
        const ArrayInfo& a = arrays_[op.a];
        std::size_t e = 0;
        if (op.code == Code::Store) {
          e = index_of(sp[-1], a.d0, op.line) * a.d1;
          sp -= 1;
        } else {
          e = static_cast<std::size_t>(sp[-2]) * a.d1 +
              index_of(sp[-1], a.d1, op.line);
          sp -= 2;
        }
        const double v = *--sp;
        p.st(a.base + e * sizeof(double), sizeof(double), op.b);
        a.data[e] = v;
        p.compute(1);
        break;
      }
      case Code::Compute:
        p.compute(static_cast<Cycle>(std::llround(*--sp)));
        break;
      case Code::Barrier: p.barrier(op.b); break;
      case Code::Lock:
      case Code::Unlock: {
        const ArrayInfo& a = arrays_[op.a];
        sp -= op.c;
        const auto i = static_cast<std::size_t>(sp[0]);
        const std::size_t j = op.c > 1 ? static_cast<std::size_t>(sp[1]) : 0;
        const Addr addr = a.base + (i * a.d1 + j) * sizeof(double);
        if (op.code == Code::Lock) {
          p.lock(addr);
        } else {
          p.unlock(addr);
        }
        break;
      }
      case Code::Directive: {
        // One contiguous byte span per row (row-major layout).
        const ArrayInfo& a = arrays_[op.a];
        const auto kind = static_cast<sim::DirectiveKind>(op.b);
        sp -= 2 * op.c;
        const auto lo = static_cast<std::size_t>(sp[0]);
        const auto hi = static_cast<std::size_t>(sp[1]);
        if (op.c == 1) {
          issue(p, kind, a.base + lo * a.d1 * sizeof(double),
                (hi - lo + 1) * a.d1 * sizeof(double));
          break;
        }
        const auto clo = static_cast<std::size_t>(sp[2]);
        const auto chi = static_cast<std::size_t>(sp[3]);
        for (std::size_t i = lo; i <= hi; ++i) {
          issue(p, kind, a.base + (i * a.d1 + clo) * sizeof(double),
                (chi - clo + 1) * sizeof(double));
        }
        break;
      }
      case Code::Jump: pc = op.c; break;
      case Code::JumpIfZero:
        if (*--sp == 0.0) pc = op.c;
        break;
      case Code::ForInit: {
        sp -= 3;
        double* l = &f.vals[op.a];
        l[0] = sp[0];
        l[1] = sp[1];
        l[2] = sp[2];
        if (l[2] == 0.0) fail("zero loop step", op.line);
        if (in_loop(l)) {
          f.write(op.b, l[0]);
        } else {
          pc = op.c;
        }
        break;
      }
      case Code::ForNext: {
        p.compute(1);
        double* l = &f.vals[op.a];
        l[0] += l[2];
        if (in_loop(l)) {
          f.write(op.b, l[0]);
          pc = op.c;
        }
        break;
      }
      case Code::Fail: throw InterpError(failures_[op.b]);
      case Code::End: return;
    }
  }
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

#include "cico/analysis/typestate.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "cico/analysis/affine.hpp"
#include "cico/analysis/dataflow.hpp"
#include "cico/lang/cfg.hpp"
#include "cico/lang/unparse.hpp"

namespace cico::analysis {
namespace {

using lang::Stmt;
using lang::StmtKind;

// ---------------------------------------------------------------------------
// Typestate lattice
// ---------------------------------------------------------------------------

enum class Chk : std::uint8_t { Idle, CoX, CoS, Top };

constexpr int kRefNone = 0;      // no checkout region recorded
constexpr int kRefConflict = -1; // different regions on different paths

struct ArrState {
  Chk chk = Chk::Idle;
  bool may_out = false;    // may be checked out on some path
  bool used_may = false;   // accessed this epoch on some path
  bool used_must = false;  // accessed this epoch on every path
  bool co_epoch = false;   // checked out this epoch on every path
  bool locked = false;     // lock held on every path
  int ref = kRefNone;      // interned region text of the live checkout
};

/// Whole-program state: one ArrState per shared array.  `reached` false is
/// the solver's bottom (identity for join), so must-bits need no special
/// "start at true" encoding.
struct TState {
  bool reached = false;
  std::vector<ArrState> a;
};

struct TypestateDomain {
  using State = TState;

  const lang::Cfg* cfg = nullptr;
  const StmtIndex* stmts = nullptr;
  const SharedArrays* arrays = nullptr;
  /// Region identity per checkout directive (by statement id), interned
  /// from the affine solver's semantic region_key -- `A[0:N-1]` and
  /// `A[0:15]` share an id under `const N = 16`.
  const std::map<lang::AstId, int>* rid_of_stmt = nullptr;

  [[nodiscard]] State init() const { return {}; }
  [[nodiscard]] State boundary() const {
    State s;
    s.reached = true;
    s.a.assign(arrays->size(), ArrState{});
    return s;
  }

  bool join(State& into, const State& from) const {  // NOLINT(readability-function-cognitive-complexity)
    if (!from.reached) return false;
    if (!into.reached) {
      into = from;
      return true;
    }
    bool changed = false;
    for (std::size_t i = 0; i < into.a.size(); ++i) {
      ArrState& t = into.a[i];
      const ArrState& f = from.a[i];
      if (t.chk != f.chk && t.chk != Chk::Top) {
        t.chk = Chk::Top;
        changed = true;
      }
      if (f.may_out && !t.may_out) { t.may_out = true; changed = true; }
      if (f.used_may && !t.used_may) { t.used_may = true; changed = true; }
      if (!f.used_must && t.used_must) { t.used_must = false; changed = true; }
      if (!f.co_epoch && t.co_epoch) { t.co_epoch = false; changed = true; }
      if (!f.locked && t.locked) { t.locked = false; changed = true; }
      if (t.ref != f.ref && t.ref != kRefConflict) {
        t.ref = kRefConflict;
        changed = true;
      }
    }
    return changed;
  }

  /// One statement's effect -- shared by the solver and the diagnostic
  /// replay, so the replay sees exactly the solver's states.
  void apply(const Stmt& s, State& st) const {
    switch (s.kind) {
      case StmtKind::Barrier:
        for (ArrState& a : st.a) {
          a.used_may = a.used_must = false;
          a.co_epoch = false;
        }
        break;
      case StmtKind::Directive: {
        const int idx = arrays->index_of(s.ref->name);
        if (idx < 0) break;
        ArrState& a = st.a[static_cast<std::size_t>(idx)];
        switch (s.dir) {
          case sim::DirectiveKind::CheckOutX:
          case sim::DirectiveKind::CheckOutS: {
            a.chk = s.dir == sim::DirectiveKind::CheckOutX ? Chk::CoX : Chk::CoS;
            a.may_out = true;
            a.co_epoch = true;
            auto it = rid_of_stmt->find(s.id);
            a.ref = it == rid_of_stmt->end() ? kRefConflict : it->second;
            break;
          }
          case sim::DirectiveKind::CheckIn:
            a.chk = Chk::Idle;
            a.may_out = false;
            a.co_epoch = false;
            a.ref = kRefNone;
            break;
          case sim::DirectiveKind::PrefetchX:
          case sim::DirectiveKind::PrefetchS:
            break;  // hint only; CICO009 inspects the pre-state
        }
        break;
      }
      case StmtKind::Lock:
      case StmtKind::Unlock: {
        const int idx = arrays->index_of(s.ref->name);
        if (idx >= 0) {
          st.a[static_cast<std::size_t>(idx)].locked =
              s.kind == StmtKind::Lock;
        }
        break;
      }
      default:
        for (const SharedAccess& acc : shared_accesses(s, *arrays)) {
          st.a[acc.array].used_may = true;
          st.a[acc.array].used_must = true;
        }
        break;
    }
  }

  void transfer(std::uint32_t block, State& st) const {
    if (!st.reached) return;
    for (lang::AstId id : cfg->blocks()[block].stmts) {
      if (const Stmt* s = stmts->stmt(id)) apply(*s, st);
    }
  }
};

// ---------------------------------------------------------------------------
// Backward epoch facts: uncovered uses ahead, check_in ahead
// ---------------------------------------------------------------------------

struct EpochFacts {
  std::vector<bool> uncovered_use;  // per array: use ahead, not re-covered
  std::vector<bool> checkin_ahead;  // per array: check_in ahead this epoch
};

struct EpochDomain {
  using State = EpochFacts;

  const lang::Cfg* cfg = nullptr;
  const StmtIndex* stmts = nullptr;
  const SharedArrays* arrays = nullptr;

  [[nodiscard]] State init() const {
    return {std::vector<bool>(arrays->size(), false),
            std::vector<bool>(arrays->size(), false)};
  }
  [[nodiscard]] State boundary() const { return init(); }

  bool join(State& into, const State& from) const {
    bool changed = false;
    for (std::size_t i = 0; i < into.uncovered_use.size(); ++i) {
      if (from.uncovered_use[i] && !into.uncovered_use[i]) {
        into.uncovered_use[i] = true;
        changed = true;
      }
      if (from.checkin_ahead[i] && !into.checkin_ahead[i]) {
        into.checkin_ahead[i] = true;
        changed = true;
      }
    }
    return changed;
  }

  /// Reverse effect of one statement (state flows from after to before).
  void apply(const Stmt& s, State& st) const {
    switch (s.kind) {
      case StmtKind::Barrier:
        std::fill(st.uncovered_use.begin(), st.uncovered_use.end(), false);
        std::fill(st.checkin_ahead.begin(), st.checkin_ahead.end(), false);
        break;
      case StmtKind::Directive: {
        const int idx = arrays->index_of(s.ref->name);
        if (idx < 0) break;
        const auto i = static_cast<std::size_t>(idx);
        if (s.dir == sim::DirectiveKind::CheckOutX ||
            s.dir == sim::DirectiveKind::CheckOutS) {
          // A re-checkout covers the uses beyond it, and any check_in
          // beyond it pairs with this checkout, not with earlier code.
          st.uncovered_use[i] = false;
          st.checkin_ahead[i] = false;
        } else if (s.dir == sim::DirectiveKind::CheckIn) {
          st.checkin_ahead[i] = true;
        }
        break;
      }
      default:
        for (const SharedAccess& acc : shared_accesses(s, *arrays)) {
          st.uncovered_use[acc.array] = true;
        }
        break;
    }
  }

  void transfer(std::uint32_t block, State& st) const {
    const auto& ids = cfg->blocks()[block].stmts;
    for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
      if (const Stmt* s = stmts->stmt(*it)) apply(*s, st);
    }
  }
};

// ---------------------------------------------------------------------------
// Rule CICO008 (redundant loop checkout) -- syntactic over the loop tree
// ---------------------------------------------------------------------------

void collect_expr_vars(const lang::Expr* e, std::vector<std::string>& out) {
  if (e == nullptr) return;
  if (e->kind == lang::ExprKind::Var || e->kind == lang::ExprKind::Index) {
    out.push_back(e->name);
  }
  for (const auto& a : e->args) collect_expr_vars(a.get(), out);
}

struct LoopScan {
  std::vector<std::string> defined;  // names (re)defined inside the loop
  bool has_barrier = false;
  bool has_lock = false;
  std::vector<std::string> checked_in;  // arrays checked in inside the loop
};

void scan_loop_body(const std::vector<lang::StmtPtr>& stmts, LoopScan& out) {
  for (const auto& sp : stmts) {
    const Stmt& s = *sp;
    switch (s.kind) {
      case StmtKind::For:
        out.defined.push_back(s.name);
        break;
      case StmtKind::Private:
        out.defined.push_back(s.name);
        break;
      case StmtKind::Assign:
        if (s.subs.empty()) out.defined.push_back(s.name);
        break;
      case StmtKind::Barrier:
        out.has_barrier = true;
        break;
      case StmtKind::Lock:
        out.has_lock = true;
        break;
      case StmtKind::Directive:
        if (s.dir == sim::DirectiveKind::CheckIn) {
          out.checked_in.push_back(s.ref->name);
        }
        break;
      default:
        break;
    }
    scan_loop_body(s.body, out);
    scan_loop_body(s.else_body, out);
  }
}

bool contains_name(const std::vector<std::string>& names,
                   std::string_view name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

// ---------------------------------------------------------------------------
// lint()
// ---------------------------------------------------------------------------

LintResult lint(const lang::Program& program) {
  LintResult result;
  const lang::Cfg cfg(program);
  const CfgInfo info(cfg);
  const StmtIndex stmts(program);
  const SharedArrays arrays(program);
  if (arrays.size() == 0) return result;

  // Program-wide facts: which arrays have any check_out / check_in at all
  // (arrays managed by CICO), where the first check_out is (leak anchor),
  // interned region identities (double-checkout).  Regions intern by the
  // affine solver's semantic key, so `A[0:N-1]` and `A[0:15]` collide
  // under `const N = 16`; non-affine bounds fall back to their unparse
  // text, which is conservative (different spellings stay different).
  const ConstEnv env = ConstEnv::from(program);
  std::vector<bool> has_checkout(arrays.size(), false);
  std::vector<bool> has_checkin(arrays.size(), false);
  std::vector<lang::SrcLoc> first_checkout(arrays.size());
  std::map<std::string, int> ref_ids;
  std::map<lang::AstId, int> rid_of_stmt;
  {
    std::vector<const std::vector<lang::StmtPtr>*> todo = {&program.body};
    std::vector<const Stmt*> directives;
    while (!todo.empty()) {
      const auto* seq = todo.back();
      todo.pop_back();
      for (const auto& sp : *seq) {
        if (sp->kind == StmtKind::Directive) directives.push_back(sp.get());
        if (!sp->body.empty()) todo.push_back(&sp->body);
        if (!sp->else_body.empty()) todo.push_back(&sp->else_body);
      }
    }
    // Source order for the "first" checkout and stable intern ids.
    std::sort(directives.begin(), directives.end(),
              [](const Stmt* a, const Stmt* b) {
                return std::tie(a->loc.line, a->loc.col, a->id) <
                       std::tie(b->loc.line, b->loc.col, b->id);
              });
    int next_ref = 1;
    for (const Stmt* d : directives) {
      const int idx = d->ref ? arrays.index_of(d->ref->name) : -1;
      if (idx < 0) continue;
      const auto i = static_cast<std::size_t>(idx);
      if (d->dir == sim::DirectiveKind::CheckIn) {
        has_checkin[i] = true;
        continue;
      }
      if (d->dir != sim::DirectiveKind::CheckOutX &&
          d->dir != sim::DirectiveKind::CheckOutS) {
        continue;
      }
      if (!has_checkout[i]) {
        has_checkout[i] = true;
        first_checkout[i] = d->loc;
      }
      const std::string key = region_key(*d->ref, env);
      const auto [it, fresh] = ref_ids.emplace(key, next_ref);
      if (fresh) ++next_ref;
      rid_of_stmt.emplace(d->id, it->second);
    }
  }

  const TypestateDomain fwd{&cfg, &stmts, &arrays, &rid_of_stmt};
  const auto fsol = solve(info, fwd, Direction::Forward);

  const EpochDomain bwd{&cfg, &stmts, &arrays};
  const auto bsol = solve(info, bwd, Direction::Backward);

  const auto emit = [&](Rule rule, Severity sev, lang::SrcLoc loc,
                        const std::string& array, std::string msg,
                        std::string hint, lang::AstId stmt_id = 0,
                        lang::AstId aux_id = 0) {
    result.diagnostics.push_back({rule, sev, loc.line, loc.col, array,
                                  std::move(msg), std::move(hint), stmt_id,
                                  aux_id});
  };

  // Replay each block from its solved in-state; at every statement the
  // forward pre-state and the backward after-state are both in hand.
  for (std::uint32_t b : info.rpo) {
    TState st = fsol.in[b];
    if (!st.reached) continue;
    // Backward replay of this block to index per-statement after-states.
    const auto& ids = cfg.blocks()[b].stmts;
    std::vector<EpochFacts> after(ids.size(), bwd.init());
    {
      EpochFacts facts = bsol.in[b];  // state at block exit
      for (std::size_t k = ids.size(); k-- > 0;) {
        after[k] = facts;
        if (const Stmt* s = stmts.stmt(ids[k])) bwd.apply(*s, facts);
      }
    }

    for (std::size_t k = 0; k < ids.size(); ++k) {
      const Stmt* sp = stmts.stmt(ids[k]);
      if (sp == nullptr) continue;
      const Stmt& s = *sp;

      if (s.kind == StmtKind::Directive) {
        const int idx = arrays.index_of(s.ref->name);
        if (idx >= 0) {
          const auto i = static_cast<std::size_t>(idx);
          const ArrState& a = st.a[i];
          const std::string& name = arrays.names[i];
          switch (s.dir) {
            case sim::DirectiveKind::CheckOutX:
            case sim::DirectiveKind::CheckOutS: {
              auto it = rid_of_stmt.find(s.id);
              const int rid =
                  it == rid_of_stmt.end() ? kRefConflict : it->second;
              if ((a.chk == Chk::CoX || a.chk == Chk::CoS) && a.co_epoch &&
                  a.ref == rid && rid != kRefConflict) {
                emit(Rule::DoubleCheckout, Severity::Warning, s.loc, name,
                     "re-checkout of '" + lang::unparse_ref(*s.ref) +
                         "' already checked out this epoch",
                     "drop the redundant directive", s.id);
              }
              break;
            }
            case sim::DirectiveKind::CheckIn:
              if (!a.may_out && !a.used_may) {
                emit(Rule::CheckinWithoutCheckout, Severity::Error, s.loc,
                     name,
                     "check_in of '" + name +
                         "' which was never checked out or written",
                     "remove the check_in or add the matching check_out",
                     s.id);
              }
              if (after[k].uncovered_use[i]) {
                emit(Rule::EarlyCheckin, Severity::Warning, s.loc, name,
                     "check_in of '" + name +
                         "' before a later use in the same epoch",
                     "move the check_in after the last access of the epoch "
                     "(Mp3d-style defect)",
                     s.id);
              }
              break;
            case sim::DirectiveKind::PrefetchX:
            case sim::DirectiveKind::PrefetchS:
              if (a.used_must) {
                emit(Rule::PrefetchAfterUse, Severity::Warning, s.loc, name,
                     "prefetch of '" + name +
                         "' after it was already accessed this epoch",
                     "move the prefetch before the first access or delete "
                     "it",
                     s.id);
              }
              break;
          }
        }
      } else {
        for (const SharedAccess& acc : shared_accesses(s, arrays)) {
          const ArrState& a = st.a[acc.array];
          const std::string& name = arrays.names[acc.array];
          if (!has_checkout[acc.array]) continue;  // unmanaged array
          if (acc.write) {
            if (a.chk == Chk::CoS && !a.locked) {
              emit(Rule::WriteUnderShared, Severity::Error, acc.loc, name,
                   "write to '" + name +
                       "' while checked out shared (check_out_S)",
                   "use check_out_X for regions that are written", s.id);
            } else if (a.chk == Chk::Idle && !a.locked &&
                       !after[k].checkin_ahead[acc.array]) {
              emit(Rule::MissedCheckoutWrite, Severity::Error, acc.loc, name,
                   "write to shared '" + name + "' with no checkout in effect",
                   "insert check_out_X " + name + "[...] before this write",
                   s.id);
            }
          } else if (a.chk == Chk::Idle && !a.locked &&
                     !after[k].checkin_ahead[acc.array]) {
            emit(Rule::MissedCheckoutRead, Severity::Warning, acc.loc, name,
                 "read of shared '" + name + "' with no checkout in effect",
                 "insert check_out_S " + name + "[...] before this read",
                 s.id);
          }
        }
      }
      fwd.apply(s, st);
    }
  }

  // CICO006: a reachable check_out with no check_in for the array anywhere
  // in the program.  Regions that are paired elsewhere but still held when
  // the program ends are deliberate (Cachier's programmer placement keeps a
  // trailing checkout live for the next epoch and lets termination reclaim
  // ownership), so only a wholly unpaired array is a leak.
  {
    TState end = fwd.init();
    for (std::uint32_t e : info.exits) fwd.join(end, fsol.out[e]);
    if (end.reached) {
      for (std::size_t i = 0; i < arrays.size(); ++i) {
        if (end.a[i].may_out && !has_checkin[i]) {
          emit(Rule::CheckoutLeak, Severity::Warning, first_checkout[i],
               arrays.names[i],
               "'" + arrays.names[i] + "' is checked out but never checked in",
               "add check_in " + arrays.names[i] +
                   "[...] before the program ends");
        }
      }
    }
  }

  // CICO008: loop-invariant checkout inside a loop (syntactic, loop tree).
  {
    std::vector<const Stmt*> todo;
    std::vector<const std::vector<lang::StmtPtr>*> seqs = {&program.body};
    while (!seqs.empty()) {
      const auto* seq = seqs.back();
      seqs.pop_back();
      for (const auto& sp : *seq) {
        if (sp->kind == StmtKind::Directive &&
            (sp->dir == sim::DirectiveKind::CheckOutX ||
             sp->dir == sim::DirectiveKind::CheckOutS)) {
          todo.push_back(sp.get());
        }
        if (!sp->body.empty()) seqs.push_back(&sp->body);
        if (!sp->else_body.empty()) seqs.push_back(&sp->else_body);
      }
    }
    for (const Stmt* d : todo) {
      const lang::AstId loop_id = cfg.loop_of(d->id);
      if (loop_id == 0) continue;
      const Stmt* loop = stmts.stmt(loop_id);
      if (loop == nullptr) continue;

      LoopScan scan;
      scan.defined.push_back(loop->name);
      scan_loop_body(loop->body, scan);
      // The loop must be annotation-transparent: a barrier, lock, or a
      // check_in of this array inside it makes re-checkout meaningful.
      if (scan.has_barrier || scan.has_lock ||
          contains_name(scan.checked_in, d->ref->name)) {
        continue;
      }
      std::vector<std::string> used;
      for (const lang::RangeExpr& r : d->ref->ranges) {
        collect_expr_vars(r.lo.get(), used);
        collect_expr_vars(r.hi.get(), used);
      }
      bool invariant = true;
      for (const std::string& u : used) {
        if (contains_name(scan.defined, u)) {
          invariant = false;
          break;
        }
      }
      if (!invariant) continue;
      // Conditional execution depending on the iteration also blocks
      // hoisting: an enclosing If (inside the loop) whose condition uses a
      // name defined in the loop.
      bool guarded = false;
      for (lang::AstId p = cfg.parent_of(d->id); p != 0 && p != loop_id;
           p = cfg.parent_of(p)) {
        const Stmt* ps = stmts.stmt(p);
        if (ps == nullptr || ps->kind != StmtKind::If) continue;
        std::vector<std::string> cond_vars;
        collect_expr_vars(ps->cond.get(), cond_vars);
        for (const std::string& v : cond_vars) {
          if (contains_name(scan.defined, v)) {
            guarded = true;
            break;
          }
        }
        if (guarded) break;
      }
      if (guarded) continue;
      emit(Rule::RedundantLoopCheckout, Severity::Warning, d->loc,
           d->ref->name,
           "loop-invariant checkout of '" + lang::unparse_ref(*d->ref) +
               "' inside loop over '" + loop->name + "'",
           "hoist the directive out of the loop (MM-style defect)", d->id,
           loop_id);
    }
  }

  sort_diagnostics(result.diagnostics);
  return result;
}

}  // namespace cico::analysis

#include "cico/srcann/annotator.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "cico/analysis/static_plan.hpp"

namespace cico::srcann {

namespace lang = cico::lang;
using cachier::BlockSet;
using lang::AstId;
using lang::Program;
using lang::Stmt;
using lang::StmtKind;
using lang::StmtPtr;

namespace {

// ---------------------------------------------------------------------------
// Small AST builders
// ---------------------------------------------------------------------------

lang::ExprPtr make_pid(Program& p) {
  auto e = std::make_unique<lang::Expr>();
  e->id = p.next_id++;
  e->kind = lang::ExprKind::Pid;
  return e;
}

/// a + b*pid, simplified.
lang::ExprPtr make_affine(Program& p, long long a, long long b) {
  if (b == 0) return lang::make_number(p, static_cast<double>(a));
  lang::ExprPtr pid_term =
      b == 1 ? make_pid(p)
             : lang::make_binary(p, lang::BinOp::Mul,
                                 lang::make_number(p, static_cast<double>(b)),
                                 make_pid(p));
  if (a == 0) return pid_term;
  return lang::make_binary(p, lang::BinOp::Add,
                           lang::make_number(p, static_cast<double>(a)),
                           std::move(pid_term));
}

lang::RangeExpr make_range(lang::ExprPtr lo, lang::ExprPtr hi, bool single) {
  lang::RangeExpr r;
  r.lo = std::move(lo);
  if (!single) r.hi = std::move(hi);
  return r;
}

StmtPtr make_pid_guard(Program& p, NodeId node, std::vector<StmtPtr> body) {
  auto s = std::make_unique<Stmt>();
  s->id = p.next_id++;
  s->kind = StmtKind::If;
  s->cond = lang::make_binary(p, lang::BinOp::Eq, make_pid(p),
                              lang::make_number(p, node));
  s->body = std::move(body);
  s->synthesized = true;
  return s;
}

// ---------------------------------------------------------------------------
// Element-set bookkeeping
// ---------------------------------------------------------------------------

/// Trace-side array addressing (PlanShape plus the address window used
/// to map blocks back to elements).
struct ArrayLayout {
  std::string name;
  Addr base = 0;
  std::uint64_t bytes = 0;
  std::size_t d0 = 0, d1 = 1;
  bool two_d = false;
};

struct AffineVal {
  long long a = 0, b = 0;  // value(n) = a + b*n
  bool ok = false;
};

AffineVal fit_affine(const std::vector<std::pair<NodeId, long long>>& pts) {
  AffineVal out;
  if (pts.empty()) return out;
  if (pts.size() == 1) {
    out.a = pts[0].second;
    out.b = 0;
    out.ok = true;  // caller guards single-node families with `if pid ==`
    return out;
  }
  const long long dn = static_cast<long long>(pts[1].first) -
                       static_cast<long long>(pts[0].first);
  const long long dv = pts[1].second - pts[0].second;
  if (dn == 0 || dv % dn != 0) return out;
  out.b = dv / dn;
  out.a = pts[0].second - out.b * static_cast<long long>(pts[0].first);
  for (const auto& [n, v] : pts) {
    if (out.a + out.b * static_cast<long long>(n) != v) return out;
  }
  out.ok = true;
  return out;
}

/// Rectangle (or 1-D run) covered by a node's element set; valid only if
/// the set is exactly the rectangle.
struct Rect {
  long long r0 = 0, r1 = 0, c0 = 0, c1 = 0;
  bool ok = false;
};

Rect rect_of(const std::set<std::size_t>& elems, const PlanShape& a) {
  Rect r;
  if (elems.empty()) return r;
  long long rmin = 1LL << 60, rmax = -1, cmin = 1LL << 60, cmax = -1;
  for (std::size_t e : elems) {
    const long long row = a.two_d ? static_cast<long long>(e / a.d1) : 0;
    const long long col = static_cast<long long>(a.two_d ? e % a.d1 : e);
    rmin = std::min(rmin, row);
    rmax = std::max(rmax, row);
    cmin = std::min(cmin, col);
    cmax = std::max(cmax, col);
  }
  const auto count = static_cast<std::size_t>((rmax - rmin + 1) *
                                              (cmax - cmin + 1));
  if (count != elems.size()) return r;
  r.r0 = rmin;
  r.r1 = rmax;
  r.c0 = cmin;
  r.c1 = cmax;
  r.ok = true;
  return r;
}

// ---------------------------------------------------------------------------
// Family keys and placement
// ---------------------------------------------------------------------------

enum class Place : std::uint8_t {
  ProgramStart,
  AfterBarrier,
  BeforeBarrier,
  ProgramEnd,
};

struct FamilyKey {
  AstId anchor;  // barrier stmt id (0 for program start/end)
  Place place;
  std::string array;
  sim::DirectiveKind kind;
  int part = 0;  // planner-side split of one logical family into rects
};

/// Emission order within an anchor.  The default kind order is the
/// DirectiveKind enum (the historical trace-path order, pinned by
/// goldens); cos_first hoists check_out_S ahead of check_out_X for plans
/// that mix both on one array at one anchor.
struct FamilyOrder {
  bool cos_first = false;

  [[nodiscard]] int rank(sim::DirectiveKind k) const {
    if (!cos_first) return static_cast<int>(k);
    if (k == sim::DirectiveKind::CheckOutS) return 0;
    if (k == sim::DirectiveKind::CheckOutX) return 1;
    return static_cast<int>(k) + 2;
  }

  bool operator()(const FamilyKey& a, const FamilyKey& b) const {
    const int ra = rank(a.kind);
    const int rb = rank(b.kind);
    return std::tie(a.anchor, a.place, a.array, ra, a.part) <
           std::tie(b.anchor, b.place, b.array, rb, b.part);
  }
};

// ---------------------------------------------------------------------------
// The emitter: PlanSource -> annotated program
// ---------------------------------------------------------------------------

/// Shared back half of the pipeline: affine fitting, pid guards, loop
/// generation, placement and insertion.  Consumes a PlanSource; mutates
/// the output program in place.
class Emitter {
 public:
  Emitter(Program& out, const PlanSource& plan, std::size_t max_pid_cases)
      : out_(out),
        plan_(plan),
        max_pid_cases_(max_pid_cases),
        families_(FamilyOrder{plan.cos_before_cox}) {
    build_stmt_maps();
    for (const PlanFamily& f : plan.families) {
      const Place place =
          f.anchor == 0
              ? (f.at_start ? Place::ProgramStart : Place::ProgramEnd)
              : (f.at_start ? Place::AfterBarrier : Place::BeforeBarrier);
      const FamilyKey key{f.anchor, place, f.array, f.kind, f.part};
      auto& per_node = families_[key];
      for (NodeId n = 0; n < f.per_node.size(); ++n) {
        for (std::uint32_t e : f.per_node[n]) per_node[n].insert(e);
      }
      if (per_node.empty()) families_.erase(key);
    }
  }

  void run() {
    emit_families();
    for (const PlanTightWrap& w : plan_.tight) tight_wrap(w);
    insert_all();
  }

  [[nodiscard]] std::size_t inserted() const { return inserted_; }
  [[nodiscard]] std::size_t generated_loops() const { return generated_loops_; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  [[nodiscard]] std::string notes() const { return notes_.str(); }

 private:
  void map_stmts(const std::vector<StmtPtr>& stmts) {
    for (const auto& sp : stmts) {
      stmt_by_id_[sp->id] = sp.get();
      map_stmts(sp->body);
      map_stmts(sp->else_body);
    }
  }

  void build_stmt_maps() { map_stmts(out_.body); }

  [[nodiscard]] const PlanShape* shape_of(const std::string& name) const {
    for (const auto& s : plan_.shapes) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }

  // --- emission ---------------------------------------------------------------

  lang::ArrayRef build_ref(const PlanShape& a, const AffineVal& r0,
                           const AffineVal& r1, const AffineVal& c0,
                           const AffineVal& c1) {
    lang::ArrayRef ref;
    ref.id = out_.next_id++;
    ref.name = a.name;
    if (a.two_d) {
      ref.ranges.push_back(make_range(
          make_affine(out_, r0.a, r0.b), make_affine(out_, r1.a, r1.b),
          r0.a == r1.a && r0.b == r1.b));
      ref.ranges.push_back(make_range(
          make_affine(out_, c0.a, c0.b), make_affine(out_, c1.a, c1.b),
          c0.a == c1.a && c0.b == c1.b));
    } else {
      ref.ranges.push_back(make_range(
          make_affine(out_, c0.a, c0.b), make_affine(out_, c1.a, c1.b),
          c0.a == c1.a && c0.b == c1.b));
    }
    return ref;
  }

  /// Emit one family's statements.  Returns the statements to insert.
  std::vector<StmtPtr> emit_family(const FamilyKey& key,
                                   const std::map<NodeId, std::set<std::size_t>>& per_node) {
    std::vector<StmtPtr> stmts;
    const PlanShape* a = shape_of(key.array);
    if (a == nullptr) return stmts;

    // Per-node rectangles.
    std::vector<std::pair<NodeId, Rect>> rects;
    bool all_rect = true;
    for (const auto& [n, elems] : per_node) {
      Rect r = rect_of(elems, *a);
      if (!r.ok) {
        all_rect = false;
        break;
      }
      rects.emplace_back(n, r);
    }

    if (all_rect && !rects.empty()) {
      // Try an affine fit across the participating nodes.
      std::vector<std::pair<NodeId, long long>> r0s, r1s, c0s, c1s;
      for (const auto& [n, r] : rects) {
        r0s.emplace_back(n, r.r0);
        r1s.emplace_back(n, r.r1);
        c0s.emplace_back(n, r.c0);
        c1s.emplace_back(n, r.c1);
      }
      const AffineVal f0 = fit_affine(r0s), f1 = fit_affine(r1s),
                      g0 = fit_affine(c0s), g1 = fit_affine(c1s);
      const bool covers_all_nodes = per_node.size() == plan_.nodes;
      if (f0.ok && f1.ok && g0.ok && g1.ok) {
        StmtPtr dir = lang::make_directive(out_, key.kind,
                                           build_ref(*a, f0, f1, g0, g1));
        ++inserted_;
        if (covers_all_nodes) {
          stmts.push_back(std::move(dir));
        } else if (per_node.size() == 1) {
          std::vector<StmtPtr> body;
          body.push_back(std::move(dir));
          stmts.push_back(
              make_pid_guard(out_, per_node.begin()->first, std::move(body)));
        } else if (per_node.size() <= max_pid_cases_) {
          for (const auto& [n, r] : rects) {
            std::vector<StmtPtr> body;
            const AffineVal cr0{r.r0, 0, true}, cr1{r.r1, 0, true},
                cc0{r.c0, 0, true}, cc1{r.c1, 0, true};
            body.push_back(lang::make_directive(
                out_, key.kind, build_ref(*a, cr0, cr1, cc0, cc1)));
            stmts.push_back(make_pid_guard(out_, n, std::move(body)));
            ++inserted_;
          }
          --inserted_;  // first one was already counted
        } else {
          // Affine but only a (large) subset of nodes: guard by range.
          NodeId lo = per_node.begin()->first;
          NodeId hi = per_node.rbegin()->first;
          if (static_cast<std::size_t>(hi) - lo + 1 == per_node.size()) {
            auto s = std::make_unique<Stmt>();
            s->id = out_.next_id++;
            s->kind = StmtKind::If;
            s->cond = lang::make_binary(
                out_, lang::BinOp::And,
                lang::make_binary(out_, lang::BinOp::Ge, make_pid(out_),
                                  lang::make_number(out_, lo)),
                lang::make_binary(out_, lang::BinOp::Le, make_pid(out_),
                                  lang::make_number(out_, hi)));
            s->synthesized = true;
            s->body.push_back(std::move(dir));
            stmts.push_back(std::move(s));
          } else {
            ++dropped_;
            notes_ << "dropped non-contiguous node family on " << a->name
                   << "\n";
          }
        }
        return stmts;
      }
    }

    // Fallback: per-node concrete rectangles (small families only).
    if (all_rect && per_node.size() <= max_pid_cases_) {
      for (const auto& [n, r] : rects) {
        std::vector<StmtPtr> body;
        const AffineVal cr0{r.r0, 0, true}, cr1{r.r1, 0, true},
            cc0{r.c0, 0, true}, cc1{r.c1, 0, true};
        body.push_back(lang::make_directive(out_, key.kind,
                                            build_ref(*a, cr0, cr1, cc0, cc1)));
        stmts.push_back(make_pid_guard(out_, n, std::move(body)));
        ++inserted_;
      }
      return stmts;
    }

    ++dropped_;
    notes_ << "dropped non-affine family on " << a->name << " ("
           << per_node.size() << " nodes)\n";
    return stmts;
  }

  void emit_families() {
    for (const auto& [key, per_node] : families_) {
      std::vector<StmtPtr> stmts = emit_family(key, per_node);
      if (stmts.empty()) continue;
      auto& slot = key.place == Place::BeforeBarrier ||
                           key.place == Place::ProgramEnd
                       ? before_[key.anchor]
                       : after_[key.anchor];
      for (auto& s : stmts) slot.push_back(std::move(s));
    }
  }

  // --- tight DRFS annotations (section 4.4 placement) -------------------------

  void tight_wrap(const PlanTightWrap& w) {
    const Stmt* s = stmt_by_id_.contains(w.stmt) ? stmt_by_id_[w.stmt]
                                                  : nullptr;
    if (s == nullptr || s->kind != StmtKind::Assign || s->subs.empty()) {
      return;  // only element writes get the 4.4 treatment
    }
    // Build the single-element ref from the lvalue.
    lang::ArrayRef ref;
    ref.id = out_.next_id++;
    ref.name = s->name;
    for (const auto& sub : s->subs) {
      lang::RangeExpr r;
      r.lo = sub->clone();
      ref.ranges.push_back(std::move(r));
    }
    if (w.co_x) {
      before_[w.stmt].push_back(lang::make_directive(
          out_, sim::DirectiveKind::CheckOutX, ref.clone()));
      ++inserted_;
    }
    if (w.ci) {
      after_[w.stmt].push_back(lang::make_directive(
          out_, sim::DirectiveKind::CheckIn, ref.clone()));
      ++inserted_;
    }
    notes_ << "tight DRFS annotations around statement at line "
           << s->loc.line << " (" << s->name << ")\n";
  }

  // --- insertion ----------------------------------------------------------------

  void insert_in_block(std::vector<StmtPtr>& block) {
    std::vector<StmtPtr> rebuilt;
    for (auto& sp : block) {
      const AstId id = sp->id;
      insert_in_block(sp->body);
      insert_in_block(sp->else_body);
      if (auto it = before_.find(id); it != before_.end()) {
        for (auto& s : it->second) rebuilt.push_back(std::move(s));
        before_.erase(it);
      }
      rebuilt.push_back(std::move(sp));
      if (auto it = after_.find(id); it != after_.end()) {
        for (auto& s : it->second) rebuilt.push_back(std::move(s));
        after_.erase(it);
      }
    }
    block = std::move(rebuilt);
  }

  void insert_all() {
    // Generated row loops for multi-row rectangle refs: rewrite directive
    // statements whose ref spans multiple rows into synthesized loops.
    rewrite_row_bands(after_);
    rewrite_row_bands(before_);

    insert_in_block(out_.body);
    // Anchor 0: program start / end.
    if (auto it = after_.find(0); it != after_.end()) {
      for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
        out_.body.insert(out_.body.begin(), std::move(*rit));
      }
      after_.erase(it);
    }
    if (auto it = before_.find(0); it != before_.end()) {
      for (auto& s : it->second) out_.body.push_back(std::move(s));
      before_.erase(it);
    }
  }

  void rewrite_row_bands(std::map<AstId, std::vector<StmtPtr>>& slots) {
    for (auto& [anchor, stmts] : slots) {
      for (auto& sp : stmts) {
        maybe_loopify(sp);
        for (auto& inner : sp->body) maybe_loopify(inner);
      }
    }
  }

  /// `dir A[r0:r1, c0:c1];` with r0 != r1 becomes
  /// `for _cico_rK = r0 to r1 do dir A[_cico_rK, c0:c1]; od`
  /// -- the section 4.3 "generating new loops" collapsing step.
  void maybe_loopify(StmtPtr& sp) {
    if (sp->kind != StmtKind::Directive || !sp->ref ||
        sp->ref->ranges.size() != 2 || !sp->ref->ranges[0].hi) {
      return;
    }
    const std::string var = "_cico_r" + std::to_string(loop_counter_++);
    lang::ArrayRef inner = sp->ref->clone();
    inner.id = out_.next_id++;
    inner.ranges[0].lo = lang::make_var(out_, var);
    inner.ranges[0].hi.reset();
    StmtPtr dir = lang::make_directive(out_, sp->dir, std::move(inner));
    std::vector<StmtPtr> body;
    body.push_back(std::move(dir));
    StmtPtr loop = lang::make_for(out_, var, sp->ref->ranges[0].lo->clone(),
                                  sp->ref->ranges[0].hi->clone(),
                                  std::move(body));
    sp = std::move(loop);
    ++generated_loops_;
  }

  Program& out_;
  const PlanSource& plan_;
  std::size_t max_pid_cases_;

  std::unordered_map<AstId, const Stmt*> stmt_by_id_;
  std::map<FamilyKey, std::map<NodeId, std::set<std::size_t>>, FamilyOrder>
      families_;
  std::map<AstId, std::vector<StmtPtr>> before_, after_;

  std::size_t inserted_ = 0, generated_loops_ = 0, dropped_ = 0;
  int loop_counter_ = 0;
  std::ostringstream notes_;
};

// ---------------------------------------------------------------------------
// The trace-driven planner
// ---------------------------------------------------------------------------

/// Runs the section 4.1 equations per (epoch, node) over the trace and
/// maps the chosen block sets back onto array element families -- the
/// front half of the historical annotator, now producing a PlanSource.
class TracePlanner {
 public:
  TracePlanner(const Program& src, const trace::Trace& trace,
               const lang::LoadedProgram& binding,
               const mem::CacheGeometry& geo, const AnnotateOptions& opt)
      : trace_(trace),
        binding_(binding),
        geo_(geo),
        opt_(opt),
        db_(trace, geo),
        sharing_(trace, geo, opt.sharing),
        chooser_(db_, sharing_, opt.chooser) {
    for (const auto& l : trace.labels) {
      ArrayLayout a;
      a.name = l.label;
      a.base = l.base;
      a.bytes = l.bytes;
      const auto [d0, d1] = binding.array_dims(l.label);
      a.d0 = d0;
      a.d1 = d1;
      a.two_d = d1 > 1;
      layouts_.push_back(std::move(a));
    }
    map_stmts(src.body);
    build_epoch_anchors();
  }

  PlanSource plan() {
    collect_families();
    PlanSource plan;
    plan.nodes = db_.nodes();
    for (const auto& a : layouts_) {
      plan.shapes.push_back({a.name, a.d0, a.d1, a.two_d});
    }
    for (const auto& [key, per_node] : families_) {
      PlanFamily f;
      f.anchor = key.anchor;
      f.at_start =
          key.place == Place::ProgramStart || key.place == Place::AfterBarrier;
      f.kind = key.kind;
      f.array = key.array;
      f.per_node.resize(db_.nodes());
      for (const auto& [n, elems] : per_node) {
        f.per_node[n].assign(elems.begin(), elems.end());
      }
      plan.families.push_back(std::move(f));
    }
    collect_tight(plan.tight);
    plan.races = sharing_.races().size();
    plan.false_shares = sharing_.false_shares().size();
    return plan;
  }

 private:
  // --- source structure maps ------------------------------------------------

  void map_expr(const lang::Expr& e, AstId stmt) {
    stmt_of_expr_[e.id] = stmt;
    for (const auto& a : e.args) map_expr(*a, stmt);
  }

  void map_stmts(const std::vector<StmtPtr>& stmts) {
    for (const auto& sp : stmts) {
      const Stmt& s = *sp;
      if (s.rhs) map_expr(*s.rhs, s.id);
      for (const auto& x : s.subs) map_expr(*x, s.id);
      if (s.cond) map_expr(*s.cond, s.id);
      if (s.lo) map_expr(*s.lo, s.id);
      if (s.hi) map_expr(*s.hi, s.id);
      if (s.step) map_expr(*s.step, s.id);
      stmt_of_expr_[s.id] = s.id;  // a stmt maps to itself
      map_stmts(s.body);
      map_stmts(s.else_body);
    }
  }

  void build_epoch_anchors() {
    const EpochId epochs = trace_.num_epochs();
    end_barrier_.assign(epochs, 0);
    for (const auto& b : trace_.barriers) {
      if (b.epoch < epochs && end_barrier_[b.epoch] == 0) {
        end_barrier_[b.epoch] = binding_.ast_for(b.barrier_pc);
      }
    }
  }

  [[nodiscard]] AstId start_anchor(EpochId e) const {
    return e == 0 ? 0 : end_barrier_[e - 1];
  }
  [[nodiscard]] AstId end_anchor(EpochId e) const {
    return e < end_barrier_.size() ? end_barrier_[e] : 0;
  }

  // --- set collection --------------------------------------------------------

  const ArrayLayout* layout_of_block(Block b) const {
    const Addr addr = geo_.base_of(b);
    for (const auto& a : layouts_) {
      if (addr >= a.base && addr < a.base + a.bytes) return &a;
    }
    return nullptr;
  }

  void add_blocks(const FamilyKey& proto, const BlockSet& blocks, NodeId n) {
    for (Block b : blocks) {
      const ArrayLayout* a = layout_of_block(b);
      if (a == nullptr) continue;
      FamilyKey key = proto;
      key.array = a->name;
      auto& per_node = families_[key];
      const Addr lo = std::max(geo_.base_of(b), a->base);
      const Addr hi = std::min(geo_.base_of(b) + geo_.block_bytes,
                               a->base + a->bytes);
      for (Addr x = lo; x < hi; x += sizeof(double)) {
        per_node[n].insert(static_cast<std::size_t>((x - a->base) /
                                                    sizeof(double)));
      }
    }
  }

  void collect_families() {
    const std::uint32_t nodes = db_.nodes();
    for (EpochId e = 0; e < db_.epochs(); ++e) {
      for (NodeId n = 0; n < nodes; ++n) {
        cachier::AnnotationSets s = chooser_.choose(e, n, opt_.mode);
        const AstId sa = start_anchor(e);
        const AstId ea = end_anchor(e);
        const Place sp = sa == 0 ? Place::ProgramStart : Place::AfterBarrier;
        const Place ep = ea == 0 ? Place::ProgramEnd : Place::BeforeBarrier;
        add_blocks({sa, sp, "", sim::DirectiveKind::CheckOutX}, s.co_x_start,
                   n);
        add_blocks({sa, sp, "", sim::DirectiveKind::CheckOutS}, s.co_s_start,
                   n);
        add_blocks({ea, ep, "", sim::DirectiveKind::CheckIn}, s.ci_end, n);
        // Tight sets are handled per-statement via PlanTightWrap; remember
        // them here keyed by epoch.
        for (Block b : s.ci_tight) tight_ci_[e].insert(b);
        for (Block b : s.fetch_exclusive) tight_cox_[e].insert(b);
      }
    }
  }

  void collect_tight(std::vector<PlanTightWrap>& out) {
    // Which statements touch DRFS blocks, and how?
    std::map<AstId, std::pair<bool, bool>> wrap;  // stmt -> (co_x, ci)
    for (const auto& m : trace_.misses) {
      const Block b = geo_.block_of(m.addr);
      const bool ci = tight_ci_.contains(m.epoch) &&
                      tight_ci_[m.epoch].contains(b);
      const bool cox = tight_cox_.contains(m.epoch) &&
                       tight_cox_[m.epoch].contains(b);
      if (!ci && !cox) continue;
      const AstId ast = binding_.ast_for(m.pc);
      auto it = stmt_of_expr_.find(ast);
      if (it == stmt_of_expr_.end()) continue;
      auto& w = wrap[it->second];
      w.first |= cox;
      w.second |= ci;
    }
    for (const auto& [stmt_id, w] : wrap) {
      out.push_back({stmt_id, w.first, w.second});
    }
  }

  const trace::Trace& trace_;
  const lang::LoadedProgram& binding_;
  mem::CacheGeometry geo_;
  AnnotateOptions opt_;
  cachier::EpochDB db_;
  cachier::SharingAnalyzer sharing_;
  cachier::AnnotationChooser chooser_;

  std::vector<ArrayLayout> layouts_;
  std::unordered_map<AstId, AstId> stmt_of_expr_;
  std::vector<AstId> end_barrier_;
  std::map<FamilyKey, std::map<NodeId, std::set<std::size_t>>, FamilyOrder>
      families_;
  std::unordered_map<EpochId, BlockSet> tight_ci_, tight_cox_;
};

void naive_block(Program& out, std::vector<StmtPtr>& block,
                 const std::set<std::string>& shared) {
  std::vector<StmtPtr> rebuilt;
  for (auto& sp : block) {
    naive_block(out, sp->body, shared);
    naive_block(out, sp->else_body, shared);
    const bool shared_write = sp->kind == StmtKind::Assign &&
                              !sp->subs.empty() && shared.contains(sp->name);
    if (shared_write) {
      lang::ArrayRef ref;
      ref.id = out.next_id++;
      ref.name = sp->name;
      for (const auto& sub : sp->subs) {
        lang::RangeExpr r;
        r.lo = sub->clone();
        ref.ranges.push_back(std::move(r));
      }
      rebuilt.push_back(lang::make_directive(
          out, sim::DirectiveKind::CheckOutX, ref.clone()));
      rebuilt.push_back(std::move(sp));
      rebuilt.push_back(
          lang::make_directive(out, sim::DirectiveKind::CheckIn, ref.clone()));
    } else {
      rebuilt.push_back(std::move(sp));
    }
  }
  block = std::move(rebuilt);
}

}  // namespace

AnnotateResult annotate_from_source(const Program& src, const PlanSource& plan,
                                    std::size_t max_pid_cases) {
  AnnotateResult res;
  res.program = src.clone();
  Emitter em(res.program, plan, max_pid_cases);
  em.run();
  res.inserted = em.inserted();
  res.generated_loops = em.generated_loops();
  res.dropped = em.dropped();
  res.races = plan.races;
  res.false_shares = plan.false_shares;
  std::string notes;
  for (const std::string& n : plan.notes) notes += n + "\n";
  res.notes = notes + em.notes();
  return res;
}

AnnotateResult annotate(const Program& src, const trace::Trace& trace,
                        const lang::LoadedProgram& binding,
                        const mem::CacheGeometry& geo,
                        const AnnotateOptions& opt) {
  const PlanSource plan =
      TracePlanner(src, trace, binding, geo, opt).plan();
  return annotate_from_source(src, plan, opt.max_pid_cases);
}

AnnotateResult annotate_static(const Program& src, std::uint32_t nodes,
                               const StaticAnnotateOptions& opt) {
  analysis::StaticPlanOptions popt;
  popt.mode = opt.mode == cachier::Mode::Programmer
                  ? analysis::PlanMode::Programmer
                  : analysis::PlanMode::Performance;
  popt.prefetch = opt.prefetch;
  const analysis::StaticPlan sp =
      analysis::plan_static(src, static_cast<int>(nodes), popt);

  PlanSource plan;
  plan.nodes = nodes;
  for (const auto& sh : sp.shapes) {
    plan.shapes.push_back({sh.name, static_cast<std::size_t>(sh.d0),
                           static_cast<std::size_t>(sh.d1), sh.two_d});
  }
  for (const auto& f : sp.families) {
    plan.families.push_back({f.anchor, f.at_start, f.kind, f.array, f.part,
                             f.per_node});
  }
  plan.cos_before_cox = true;
  plan.notes = sp.notes;
  return annotate_from_source(src, plan, opt.max_pid_cases);
}

Program annotate_naive(const Program& src) {
  Program out = src.clone();
  std::set<std::string> shared;
  for (const auto& d : out.decls) {
    if (d->kind == StmtKind::SharedDecl) shared.insert(d->name);
  }
  naive_block(out, out.body, shared);
  return out;
}

}  // namespace cico::srcann

// `static` workload: the trace-free `annotate --static` / `lint --fix`
// path over a seeded synthetic corpus; no simulation at all.
//
// Per program: parse -> lint -> plan_static -> annotate_static -> unparse
// -> reparse -> lint, then apply_fixes on a seeded mutation of the
// annotated program with some directives deleted.  Oracles: the annotated
// output lints without errors, unparse . parse is a fixed point on it, and
// apply_fixes ends with no diagnostics left.
#include <iostream>
#include <sstream>

#include "cico/analysis/fix.hpp"
#include "cico/analysis/static_plan.hpp"
#include "cico/analysis/typestate.hpp"
#include "cico/common/hash.hpp"
#include "cico/lang/parser.hpp"
#include "cico/lang/unparse.hpp"
#include "cico/srcann/annotator.hpp"
#include "inputs.hpp"
#include "measure.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using namespace cico;

/// Programs per corpus: one full stratum of (node count, kernel count,
/// mode, kernel rotation); a run completes several passes.
constexpr std::size_t kCorpus = 160;
/// Programs pushed through the whole path during set-up as a warm-up.
constexpr std::size_t kWarmup = 32;

struct Visit {
  bool seen = false;
  std::string digest;
  double directives = 0;
  double fix_passes = 0;
};

class StaticWorkload final : public Workload {
 public:
  explicit StaticWorkload(Args a) : args_(std::move(a)) {}

  void setup() override {
    corpus_ = static_corpus(args_.seed, kCorpus);
    visits_.assign(corpus_.size(), Visit{});
    for (std::size_t i = 0; i < kWarmup && i < corpus_.size(); ++i) {
      Visit v;
      if (!run_one(i, v)) {
        throw std::runtime_error("static: warm-up failed on " +
                                 corpus_[i].name);
      }
    }
  }

  bool self_check(std::vector<std::string>& notes) override {
    // Left unfixed, the mutations must fail the fix oracle (no residual
    // diagnostics) -- otherwise the oracle could never fail.
    std::size_t mutated = 0;
    std::size_t caught = 0;
    for (std::size_t i = 0; i < kWarmup; ++i) {
      const StaticProgram& sp = corpus_[i];
      lang::Program p = lang::parse(lang::unparse(
          srcann::annotate_static(lang::parse(sp.source), sp.nodes,
                                  {.mode = mode(sp)})
              .program));
      if (mutate_directives(p, sp.mutation_seed) == 0) continue;
      ++mutated;
      caught += analysis::lint(p).diagnostics.empty() ? 0 : 1;
    }
    notes.push_back("oracle self-check (directives deleted, not fixed): " +
                    std::to_string(caught) + " of " + std::to_string(mutated) +
                    " mutations caught");
    return caught > 0;
  }

  Phase measure(double seconds) override {
    Phase ph;
    const auto t0 = Clock::now();
    const Rusage r0 = Rusage::now();
    // The corpus repeats its (node count, kernel count) strata every 20
    // programs, so every batch of 20 consecutive programs has the same mix.
    Batcher batch(20);
    while (ms_since(t0) < seconds * 1e3 || unvisited() > 0) {
      const std::size_t k = next_++ % corpus_.size();
      Tracer::set_op(k + 1);
      const auto ts = Clock::now();
      ++ph.attempted;
      Visit v;
      bool ok = false;
      try {
        Span op("bench.op");
        ok = run_one(k, v);
      } catch (const std::exception& e) {
        std::cerr << "static: " << corpus_[k].name << ": " << e.what() << "\n";
      }
      Visit& first = visits_[k];
      if (ok && !first.seen) {
        first = v;
      } else if (ok && first.digest != v.digest) {
        std::cerr << "static: " << corpus_[k].name
                  << ": output changed on rerun\n";
        ok = false;
      }
      if (ok) {
        ph.op_ms.push_back(ms_since(ts));
      } else {
        ++ph.failed;
        ok_ = false;
      }
      batch.op_done(ph);
    }
    ph.wall_s = ms_since(t0) / 1e3;
    ph.ru = Rusage::now() - r0;
    return ph;
  }

  std::map<std::string, double> counts() override {
    std::map<std::string, double> c;
    for (const Visit& v : visits_) {
      c["srcann.directives"] += v.directives;
      c["analysis.fix_passes"] += v.fix_passes;
    }
    return c;
  }

  std::string digest() override {
    common::ContentHasher h;
    for (const Visit& v : visits_) h << v.digest;
    return h.hex();
  }

  bool correct() override { return ok_; }

  /// Single-threaded; pinned like `pipeline` so both run on one CPU.
  [[nodiscard]] unsigned cpus() const override { return 1; }

  void describe(const Phase& p, std::vector<std::string>& out) override {
    std::ostringstream os;
    os << "static_per_s " << static_cast<double>(p.op_ms.size()) / p.wall_s
       << " 1/s\n"
       << "static_ms_p50 " << percentile(p.op_ms, 0.5) << " ms, static_ms_p99 "
       << percentile(p.op_ms, 0.99) << " ms (" << p.op_ms.size()
       << " samples)";
    out.push_back(os.str());
  }

 private:
  static cachier::Mode mode(const StaticProgram& sp) {
    return sp.programmer ? cachier::Mode::Programmer
                         : cachier::Mode::Performance;
  }

  bool run_one(std::size_t k, Visit& v) {
    const StaticProgram& sp = corpus_[k];
    lang::Program prog;
    {
      Span s("lang.parse");
      prog = lang::parse(sp.source);
    }
    {
      Span s("analysis.lint");
      (void)analysis::lint(prog);
    }
    {
      Span s("analysis.plan_static");
      (void)analysis::plan_static(
          prog, static_cast<int>(sp.nodes),
          {.mode = sp.programmer ? analysis::PlanMode::Programmer
                                 : analysis::PlanMode::Performance});
    }
    srcann::AnnotateResult res;
    {
      Span s("srcann.annotate_static");
      res = srcann::annotate_static(prog, sp.nodes, {.mode = mode(sp)});
    }
    std::string text;
    {
      Span s("lang.unparse");
      text = lang::unparse(res.program);
    }
    lang::Program annotated;
    {
      Span s("lang.parse");
      annotated = lang::parse(text);
    }
    analysis::LintResult lint;
    {
      Span s("analysis.lint");
      lint = analysis::lint(annotated);
    }
    // Fixed point: the reparsed output unparses to the same text, up to
    // the `# <cachier>` markers, which are comments.
    std::string plain;
    std::string again;
    {
      Span s("lang.unparse");
      plain = lang::unparse(res.program, {.mark_synthesized = false});
      again = lang::unparse(annotated);
    }
    mutate_directives(annotated, sp.mutation_seed);
    analysis::FixResult fixed;
    {
      Span s("analysis.fix");
      fixed = analysis::apply_fixes(annotated);
    }
    const bool ok = lint.errors() == 0 && again == plain &&
                    fixed.lint.diagnostics.empty();
    if (!ok) {
      std::cerr << "static: " << sp.name << ": lint errors=" << lint.errors()
                << " fixed-point=" << (again == plain)
                << " residual after fix=" << fixed.lint.diagnostics.size()
                << "\n";
    }
    common::ContentHasher h;
    h << text << lang::unparse(fixed.program);
    v.seen = true;
    v.digest = h.hex();
    v.directives = static_cast<double>(res.inserted);
    v.fix_passes = static_cast<double>(fixed.passes);
    return ok;
  }

  [[nodiscard]] std::size_t unvisited() const {
    std::size_t n = 0;
    for (const Visit& v : visits_) n += v.seen ? 0 : 1;
    return n;
  }

  Args args_;
  std::vector<StaticProgram> corpus_;
  std::vector<Visit> visits_;
  std::size_t next_ = 0;
  bool ok_ = true;
};

}  // namespace

std::unique_ptr<Workload> make_static(const Args& a) {
  return std::make_unique<StaticWorkload>(a);
}

}  // namespace perfbench

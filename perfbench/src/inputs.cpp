#include "inputs.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "cico/common/rng.hpp"
#include "measure.hpp"

namespace perfbench {

namespace {

using cico::Rng;
namespace lang = cico::lang;

/// Replaces the value of `const name = ...;` in MiniPar text.
std::string set_const(std::string src, const std::string& name, long value) {
  const std::string key = "const " + name + " = ";
  const std::size_t at = src.find(key);
  if (at == std::string::npos) {
    throw std::runtime_error("perfbench: no `" + key + "` to scale");
  }
  const std::size_t semi = src.find(';', at);
  src.replace(at + key.size(), semi - at - key.size(), std::to_string(value));
  return src;
}

long draw_in(Rng& r, long lo, long hi) {
  return lo + static_cast<long>(r.below(static_cast<std::uint64_t>(hi - lo + 1)));
}

struct Draw {
  std::vector<std::pair<std::string, long>> consts;
  std::uint32_t nodes = 4;
  bool valid = true;
};

struct AppFamily {
  const char* file;
  std::function<Draw(Rng&)> draw;
};

// Why each app is in the mix (draws are narrow, so a seed changes a
// program's shape and data layout more than its cost, and the workload's
// throughput stays comparable across seeds):
//   jacobi   -- the paper's running example; many barrier epochs with
//               affine halo exchange, so analysis and srcann get a share.
//   matmul44 -- the section 4.4 multiply; one long epoch with races on C,
//               the heaviest simulator (boundary-phase) load per program.
//   ocean    -- epoch-heavy row-band SOR; the largest Cachier analysis and
//               srcann share of the set.
//   tomcatv  -- alternating sweeps over two arrays in row strips; affine,
//               many generated loops.
//   barnes   -- all-to-all shared reads; exercises check_out_S and the
//               read-sharing side of the protocol.
//   mp3d     -- data-dependent subscripts under locks; lock traffic and
//               the irregular-region path of the planner.
//   reduce   -- a racy accumulator next to a locked one; the race report.
std::vector<AppFamily> app_families() {
  return {
      {"jacobi.mp",
       [](Rng& r) {
         Draw d;
         const long p = 2;  // header: P * P = nodes
         const long n = draw_in(r, 30, 34);
         d.valid = n % p == 0;  // blocks of N / P rows and columns
         d.consts = {{"N", n}, {"P", p}, {"T", 4}};
         d.nodes = static_cast<std::uint32_t>(p * p);
         return d;
       }},
      {"matmul44.mp",
       [](Rng& r) {
         Draw d;
         const bool tall = r.below(2) == 0;
         const long pr = tall ? 4 : 2;
         const long pc = tall ? 2 : 4;
         const long n = draw_in(r, 14, 18);
         // N not divisible by PR or PC silently skips part of the k or j
         // range; such a program computes a different product.
         d.valid = n % pr == 0 && n % pc == 0;
         d.consts = {{"N", n}, {"PR", pr}, {"PC", pc}};
         d.nodes = static_cast<std::uint32_t>(pr * pc);  // header: PR * PC
         return d;
       }},
      {"ocean.mp",
       [](Rng& r) {
         Draw d;
         const long n = draw_in(r, 40, 48);
         d.valid = n % 4 == 0;  // row bands of N / nprocs rows
         d.consts = {{"N", n}, {"T", 3}};
         return d;
       }},
      {"tomcatv.mp",
       [](Rng& r) {
         Draw d;
         const long rows = draw_in(r, 36, 44);
         d.valid = rows % 4 == 0;  // row strips of R / nprocs rows
         d.consts = {{"R", rows}, {"C", draw_in(r, 20, 24)}, {"T", 4}};
         return d;
       }},
      {"barnes.mp",
       [](Rng& r) {
         Draw d;
         const long n = draw_in(r, 120, 136);
         d.valid = n % 4 == 0;  // blocks of N / nprocs bodies
         d.consts = {{"N", n}, {"T", 3}};
         return d;
       }},
      {"mp3d.mp",
       [](Rng& r) {
         Draw d;
         const long n = draw_in(r, 192, 224);
         d.valid = n % 4 == 0;  // blocks of N / nprocs particles
         d.consts = {{"N", n}, {"CELLS", draw_in(r, 12, 24)}, {"T", 6}};
         return d;
       }},
      {"reduce.mp",
       [](Rng& r) {
         Draw d;
         const long n = draw_in(r, 3072, 4096);
         d.valid = n % 8 == 0;  // blocks of N / nprocs elements
         d.consts = {{"N", n}};
         d.nodes = 8;  // header: run with -n 8
         return d;
       }},
  };
}

// --- static corpus ----------------------------------------------------------

/// Accumulates one program: declarations and parallel-block statements.
struct ProgramText {
  std::string decls;
  std::string body;
};

// Why each kernel family is in the static corpus:
//   stencil -- affine 2-D halo stencils in pid-owned row bands with
//              min/max-clamped bounds: the affine range solver's main case.
//   bands   -- pid-owned 1-D blocks written, then read by every node:
//              producer/consumer check-ins and shared-read sets.
//   guard   -- `if pid == k` producers and mirrored reads: decidable guards
//              and pid-case chains in emission.
//   scatter -- data-dependent subscripts under locks: whole-array
//              approximation and conflict classification.
void kernel_stencil(ProgramText& t, int k, std::uint32_t nodes, Rng& r) {
  const std::string K = std::to_string(k);
  const long rows = static_cast<long>(nodes) * draw_in(r, 2, 3);
  const long cols = draw_in(r, 8, 10);
  t.decls += "const R" + K + " = " + std::to_string(rows) + ";\n";
  t.decls += "const M" + K + " = " + std::to_string(cols) + ";\n";
  t.decls += "shared real A" + K + "[R" + K + ", M" + K + "];\n";
  t.decls += "shared real B" + K + "[R" + K + ", M" + K + "];\n";
  const std::string A = "A" + K, B = "B" + K, R = "R" + K, M = "M" + K;
  t.body +=
      "  private rs" + K + " = " + R + " / nprocs;\n"
      "  private lo" + K + " = max(pid * rs" + K + ", 1);\n"
      "  private hi" + K + " = min(pid * rs" + K + " + rs" + K + " - 1, " + R +
      " - 2);\n"
      "  if pid == 0 then\n"
      "    for i = 0 to " + R + " - 1 do\n"
      "      for j = 0 to " + M + " - 1 do\n"
      "        " + A + "[i, j] = (i * " + std::to_string(draw_in(r, 3, 31)) +
      " + j * " + std::to_string(draw_in(r, 3, 31)) + ") % 11;\n"
      "      od\n"
      "    od\n"
      "  fi\n"
      "  barrier;\n"
      "  for t = 1 to 2 do\n"
      "    for i = lo" + K + " to hi" + K + " do\n"
      "      for j = 1 to " + M + " - 2 do\n"
      "        " + B + "[i, j] = 0.25 * (" + A + "[i - 1, j] + " + A +
      "[i + 1, j] + " + A + "[i, j - 1] + " + A + "[i, j + 1]);\n"
      "      od\n"
      "    od\n"
      "    barrier;\n"
      "    for i = lo" + K + " to hi" + K + " do\n"
      "      for j = 1 to " + M + " - 2 do\n"
      "        " + A + "[i, j] = " + B + "[i, j];\n"
      "      od\n"
      "    od\n"
      "    barrier;\n"
      "  od\n";
}

void kernel_bands(ProgramText& t, int k, std::uint32_t nodes, Rng& r) {
  const std::string K = std::to_string(k);
  const long n = static_cast<long>(nodes) * draw_in(r, 4, 6);
  t.decls += "const N" + K + " = " + std::to_string(n) + ";\n";
  t.decls += "shared real X" + K + "[N" + K + "];\n";
  t.decls += "shared real S" + K + "[" + std::to_string(nodes) + "];\n";
  t.body +=
      "  private pb" + K + " = N" + K + " / nprocs;\n"
      "  for i = pid * pb" + K + " to pid * pb" + K + " + pb" + K + " - 1 do\n"
      "    X" + K + "[i] = i * " + std::to_string(draw_in(r, 2, 9)) + " + pid;\n"
      "  od\n"
      "  barrier;\n"
      "  private s" + K + " = 0;\n"
      "  for i = 0 to N" + K + " - 1 do\n"
      "    s" + K + " = s" + K + " + X" + K + "[i];\n"
      "  od\n"
      "  S" + K + "[pid] = s" + K + ";\n"
      "  barrier;\n";
}

void kernel_guard(ProgramText& t, int k, std::uint32_t nodes, Rng& r) {
  const std::string K = std::to_string(k);
  const long n = static_cast<long>(nodes) * draw_in(r, 2, 3);
  t.decls += "const G" + K + "N = " + std::to_string(n) + ";\n";
  t.decls += "shared real G" + K + "[G" + K + "N];\n";
  t.decls += "shared real H" + K + "[G" + K + "N];\n";
  t.body +=
      "  if pid == " + std::to_string(r.below(nodes)) + " then\n"
      "    for i = 0 to G" + K + "N - 1 do\n"
      "      G" + K + "[i] = (i * " + std::to_string(draw_in(r, 2, 9)) +
      ") % 7;\n"
      "    od\n"
      "  fi\n"
      "  barrier;\n"
      "  private q" + K + " = G" + K + "N / nprocs;\n"
      "  for i = pid * q" + K + " to pid * q" + K + " + q" + K + " - 1 do\n"
      "    H" + K + "[i] = G" + K + "[i] + G" + K + "[G" + K + "N - 1 - i];\n"
      "  od\n"
      "  barrier;\n";
}

void kernel_scatter(ProgramText& t, int k, std::uint32_t nodes, Rng& r) {
  const std::string K = std::to_string(k);
  const long n = static_cast<long>(nodes) * draw_in(r, 2, 3);
  const long cells = draw_in(r, 8, 32);
  t.decls += "const P" + K + "N = " + std::to_string(n) + ";\n";
  t.decls += "shared real P" + K + "[P" + K + "N];\n";
  t.decls += "shared real C" + K + "[" + std::to_string(cells) + "];\n";
  t.body +=
      "  if pid == 0 then\n"
      "    for i = 0 to P" + K + "N - 1 do\n"
      "      P" + K + "[i] = (i * " + std::to_string(draw_in(r, 3, 29)) + ") % " +
      std::to_string(cells) + ";\n"
      "    od\n"
      "  fi\n"
      "  barrier;\n"
      "  private w" + K + " = P" + K + "N / nprocs;\n"
      "  for i = pid * w" + K + " to pid * w" + K + " + w" + K + " - 1 do\n"
      "    private c" + K + " = P" + K + "[i];\n"
      "    lock C" + K + "[c" + K + "];\n"
      "    C" + K + "[c" + K + "] = C" + K + "[c" + K + "] + 1;\n"
      "    unlock C" + K + "[c" + K + "];\n"
      "  od\n"
      "  barrier;\n";
}

void collect_directives(std::vector<lang::StmtPtr>& block,
                        std::vector<std::pair<std::vector<lang::StmtPtr>*,
                                              std::size_t>>& out) {
  for (std::size_t i = 0; i < block.size(); ++i) {
    lang::Stmt& s = *block[i];
    if (s.kind == lang::StmtKind::Directive) out.emplace_back(&block, i);
    collect_directives(s.body, out);
    collect_directives(s.else_body, out);
  }
}

lang::Stmt* last_array_assign(std::vector<lang::StmtPtr>& block) {
  lang::Stmt* found = nullptr;
  for (lang::StmtPtr& s : block) {
    if (s->kind == lang::StmtKind::Assign && !s->subs.empty()) found = s.get();
    if (lang::Stmt* inner = last_array_assign(s->body)) found = inner;
    if (lang::Stmt* inner = last_array_assign(s->else_body)) found = inner;
  }
  return found;
}

}  // namespace

std::vector<AppProgram> scaled_apps(std::uint64_t seed, std::size_t variants) {
  std::vector<AppProgram> out;
  Rng rng(Rng(seed).next());
  const std::vector<AppFamily> families = app_families();
  for (std::size_t i = 0; i < variants * families.size(); ++i) {
    const AppFamily& fam = families[i % families.size()];
    Draw d;
    int tries = 0;
    do {
      if (++tries > 1000) {
        throw std::runtime_error(std::string("perfbench: no valid draw for ") +
                                 fam.file);
      }
      d = fam.draw(rng);
    } while (!d.valid);
    AppProgram p;
    p.source = read_file(std::string("examples/minipar/") + fam.file);
    p.name = std::string(fam.file).substr(0, std::string(fam.file).size() - 3);
    for (const auto& [name, value] : d.consts) {
      p.source = set_const(std::move(p.source), name, value);
      p.name += " " + name + "=" + std::to_string(value);
    }
    p.nodes = d.nodes;
    p.name += " n=" + std::to_string(d.nodes);
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<StaticProgram> static_corpus(std::uint64_t seed,
                                         std::size_t count) {
  static constexpr std::uint32_t kNodes[] = {4, 8, 16, 32, 64};
  using Kernel = void (*)(ProgramText&, int, std::uint32_t, Rng&);
  static constexpr Kernel kKernels[] = {kernel_stencil, kernel_bands,
                                        kernel_guard, kernel_scatter};
  static constexpr const char* kKernelNames[] = {"stencil", "bands", "guard",
                                                 "scatter"};
  Rng rng(Rng(seed ^ 0x5ca1ab1eULL).next());
  std::vector<StaticProgram> out;
  for (std::size_t i = 0; i < count; ++i) {
    StaticProgram p;
    // The program mix is stratified, not drawn: every 160 programs hold
    // each (node count, kernel count, mode, kernel rotation) once, and
    // every 20 consecutive programs each (node count, kernel count) pair
    // once.  Analysis cost grows roughly with the square of the node count
    // and with the kernel mix, so drawing these would let a seed move the
    // throughput by itself.  The seed draws sizes, constants, guards and
    // mutations.
    p.nodes = kNodes[i % std::size(kNodes)];
    const std::size_t kernels = 1 + (i / 5) % 4;
    p.programmer = (i / 20) % 2 == 0;
    const std::size_t rotation = (i / 40) % 4;
    p.mutation_seed = rng.next();
    ProgramText t;
    std::vector<std::size_t> kinds;
    for (std::size_t k = 0; k < kernels; ++k) {
      kinds.push_back((rotation + k) % std::size(kKernels));
    }
    // The stencil goes last: annotate_static's output fails its own lint
    // (CICO005, check_in without check-out) when code follows a stencil's
    // time loop, and this workload must not fail.
    std::stable_partition(kinds.begin(), kinds.end(),
                          [](std::size_t f) { return f != 0; });
    p.name = "static" + std::to_string(i) + " n=" + std::to_string(p.nodes);
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      kKernels[kinds[k]](t, static_cast<int>(k), p.nodes, rng);
      p.name += std::string(" ") + kKernelNames[kinds[k]];
    }
    p.source = t.decls + "parallel\n" + t.body + "end\n";
    out.push_back(std::move(p));
  }
  return out;
}

std::size_t mutate_directives(lang::Program& p, std::uint64_t seed) {
  std::vector<std::pair<std::vector<lang::StmtPtr>*, std::size_t>> sites;
  collect_directives(p.body, sites);
  if (sites.empty()) return 0;
  Rng rng(seed);
  std::vector<std::pair<std::vector<lang::StmtPtr>*, std::size_t>> doomed;
  for (const auto& s : sites) {
    if (rng.below(3) == 0) doomed.push_back(s);
  }
  if (doomed.empty()) doomed.push_back(sites[rng.below(sites.size())]);
  // Erase back to front so earlier indices in the same block stay valid.
  std::sort(doomed.begin(), doomed.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first : a.second > b.second;
  });
  for (const auto& [block, idx] : doomed) {
    block->erase(block->begin() + static_cast<std::ptrdiff_t>(idx));
  }
  return doomed.size();
}

bool corrupt_one_assignment(lang::Program& p) {
  lang::Stmt* s = last_array_assign(p.body);
  if (s == nullptr) return false;
  s->rhs = lang::make_binary(p, lang::BinOp::Add, std::move(s->rhs),
                             lang::make_number(p, 1));
  return true;
}

}  // namespace perfbench

#include "cico/obs/diff.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "cico/obs/report.hpp"

namespace cico::obs {

namespace {

std::vector<std::string_view> split_dotted(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == '.') {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool glob_match(const std::vector<std::string_view>& pat, std::size_t pi,
                const std::vector<std::string_view>& path, std::size_t vi) {
  if (pi == pat.size()) return vi == path.size();
  if (pat[pi] == "**") {
    for (std::size_t skip = vi; skip <= path.size(); ++skip) {
      if (glob_match(pat, pi + 1, path, skip)) return true;
    }
    return false;
  }
  if (vi == path.size()) return false;
  if (pat[pi] != "*" && pat[pi] != path[vi]) return false;
  return glob_match(pat, pi + 1, path, vi + 1);
}

[[noreturn]] void tol_fail(std::size_t line, const std::string& msg) {
  throw std::runtime_error("tolerances: line " + std::to_string(line) + ": " +
                           msg);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

// Strips a trailing `# comment`, respecting double quotes.
std::string_view strip_comment(std::string_view line) {
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '"') in_quotes = !in_quotes;
    if (line[i] == '#' && !in_quotes) return line.substr(0, i);
  }
  return line;
}

double parse_bound(std::string_view text, std::size_t line,
                   std::string_view what) {
  char* end = nullptr;
  const std::string buf(text);
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || buf.empty() || v < 0.0 ||
      !std::isfinite(v)) {
    tol_fail(line, "bad " + std::string(what) + " bound '" + buf + "'");
  }
  return v;
}

// Parses a spec like "abs=200 rel=1.5%", "ignore"; items split on
// commas/spaces.
ToleranceRule parse_rule(std::string_view pattern, std::string_view spec,
                         std::size_t line) {
  ToleranceRule rule;
  rule.pattern = std::string(pattern);
  rule.text = std::string(spec);
  if (rule.pattern.empty()) tol_fail(line, "empty pattern");

  std::size_t i = 0;
  bool any = false;
  while (i < spec.size()) {
    while (i < spec.size() && (spec[i] == ' ' || spec[i] == ',' ||
                               spec[i] == '\t')) {
      ++i;
    }
    if (i >= spec.size()) break;
    std::size_t j = i;
    while (j < spec.size() && spec[j] != ' ' && spec[j] != ',' &&
           spec[j] != '\t') {
      ++j;
    }
    const std::string_view item = spec.substr(i, j - i);
    i = j;
    any = true;
    if (item == "ignore") {
      rule.ignore = true;
    } else if (item.rfind("abs=", 0) == 0) {
      rule.has_abs = true;
      rule.abs_bound = parse_bound(item.substr(4), line, "abs");
    } else if (item.rfind("rel=", 0) == 0) {
      std::string_view num = item.substr(4);
      if (!num.empty() && num.back() == '%') num.remove_suffix(1);
      rule.has_rel = true;
      rule.rel_bound = parse_bound(num, line, "rel");
    } else {
      tol_fail(line, "unknown tolerance item '" + std::string(item) +
                         "' (expected ignore, abs=N, or rel=P%)");
    }
  }
  if (!any) tol_fail(line, "empty tolerance spec for '" + rule.pattern + "'");
  return rule;
}

}  // namespace

std::string_view diff_class_name(DiffClass c) {
  switch (c) {
    case DiffClass::Config: return "config";
    case DiffClass::Counter: return "counter";
    case DiffClass::Cost: return "cost";
    case DiffClass::Fault: return "fault";
    case DiffClass::Epoch: return "epoch";
    case DiffClass::Structure: return "structure";
  }
  return "?";
}

ToleranceSet ToleranceSet::parse(std::string_view text) {
  ToleranceSet set;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    ++line_no;
    std::string_view line = trim(strip_comment(text.substr(start, end - start)));
    start = end + 1;
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line != "[tolerance]" && line != "[tolerances]") {
        tol_fail(line_no, "unknown section " + std::string(line) +
                              " (only [tolerance] is recognised)");
      }
      continue;
    }

    // key = value, key bare or double-quoted.
    std::string_view key;
    std::string_view rest;
    if (line.front() == '"') {
      const std::size_t close = line.find('"', 1);
      if (close == std::string_view::npos) {
        tol_fail(line_no, "unterminated quoted key");
      }
      key = line.substr(1, close - 1);
      rest = trim(line.substr(close + 1));
    } else {
      const std::size_t eq = line.find('=');
      if (eq == std::string_view::npos) {
        tol_fail(line_no, "expected 'pattern = \"spec\"'");
      }
      key = trim(line.substr(0, eq));
      rest = line.substr(eq);
    }
    if (rest.empty() || rest.front() != '=') {
      tol_fail(line_no, "expected '=' after pattern");
    }
    std::string_view value = trim(rest.substr(1));
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
      value = value.substr(1, value.size() - 2);
    } else if (!value.empty() && value.front() == '"') {
      tol_fail(line_no, "unterminated quoted spec");
    }
    set.rules_.push_back(parse_rule(key, value, line_no));
  }
  return set;
}

void ToleranceSet::add_flag(std::string_view pattern_eq_spec) {
  const std::size_t eq = pattern_eq_spec.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    throw std::runtime_error("--tol expects pattern=spec, got '" +
                             std::string(pattern_eq_spec) + "'");
  }
  // parse_rule reports "line 0" positions for flag rules; rewrap so the
  // message names the flag instead.
  try {
    rules_.push_back(parse_rule(trim(pattern_eq_spec.substr(0, eq)),
                                trim(pattern_eq_spec.substr(eq + 1)), 0));
  } catch (const std::runtime_error& e) {
    std::string msg = e.what();
    const std::string prefix = "tolerances: line 0: ";
    if (msg.rfind(prefix, 0) == 0) msg = msg.substr(prefix.size());
    throw std::runtime_error("--tol " + std::string(pattern_eq_spec) + ": " +
                             msg);
  }
}

const ToleranceRule* ToleranceSet::match(std::string_view path) const {
  const std::vector<std::string_view> segs = split_dotted(path);
  for (auto it = rules_.rbegin(); it != rules_.rend(); ++it) {
    if (glob_match(split_dotted(it->pattern), 0, segs, 0)) return &*it;
  }
  return nullptr;
}

namespace {

DiffClass classify(std::string_view path) {
  const std::vector<std::string_view> segs = split_dotted(path);
  if (segs.empty()) return DiffClass::Structure;
  if (segs[0] == "config" || segs[0] == "command" || segs[0] == "generator" ||
      segs[0] == "schema_version") {
    return DiffClass::Config;
  }
  if (segs[0] == "runs" && segs.size() >= 3) {
    const std::string_view section = segs[2];
    if (section == "cost_breakdown") return DiffClass::Cost;
    if (section == "faults") return DiffClass::Fault;
    if (section == "epoch_series" || section == "hot_blocks") {
      return DiffClass::Epoch;
    }
  }
  return DiffClass::Counter;
}

std::string render(const Json* v) {
  if (v == nullptr) return "<absent>";
  switch (v->type()) {
    case Json::Type::Null: return "null";
    case Json::Type::Bool: return v->as_bool() ? "true" : "false";
    case Json::Type::Number: return v->number_lexeme();
    case Json::Type::String: return "\"" + v->as_string() + "\"";
    case Json::Type::Array:
      return "<array[" + std::to_string(v->size()) + "]>";
    case Json::Type::Object:
      return "<object{" + std::to_string(v->size()) + "}>";
    case Json::Type::Rendered: return "<rendered>";
  }
  return "?";
}

std::uint64_t report_version(const Json& doc, std::string_view side) {
  if (doc.type() != Json::Type::Object) {
    throw std::runtime_error(std::string(side) +
                             " report: document is not a JSON object");
  }
  const Json* v = doc.find("schema_version");
  if (v == nullptr || v->type() != Json::Type::Number) {
    throw std::runtime_error(std::string(side) +
                             " report: missing schema_version");
  }
  const std::uint64_t ver = v->as_u64();
  if (ver < kReportSchemaMinSupported || ver > kReportSchemaVersion) {
    throw std::runtime_error(
        std::string(side) + " report: unsupported schema_version " +
        std::to_string(ver) + " (supported: " +
        std::to_string(kReportSchemaMinSupported) + ".." +
        std::to_string(kReportSchemaVersion) + ")");
  }
  return ver;
}

class Differ {
 public:
  Differ(const ToleranceSet& tol, std::uint64_t ver_base,
         std::uint64_t ver_cand)
      : tol_(tol), ver_base_(ver_base), ver_cand_(ver_cand) {}

  DiffResult take() {
    if (result_.regressions > 0) {
      result_.outcome = DiffOutcome::Regression;
    } else if (!result_.divergences.empty()) {
      result_.outcome = DiffOutcome::WithinTolerance;
    } else {
      result_.outcome = DiffOutcome::Identical;
    }
    return std::move(result_);
  }

  void diff_value(const std::string& path, const Json* b, const Json* c) {
    // `ignore` suppresses what would be *recorded at this path*, but never
    // prunes recursion into a container: `--tol '**=ignore'` plus a later,
    // deeper override must still diff the overridden field.
    const ToleranceRule* rule = tol_.match(path);
    const bool ignored = rule != nullptr && rule->ignore;

    if (b == nullptr || c == nullptr) {
      if (ignored) return;
      // A key present on only one side.  When the sides run different
      // schema versions, a key absent from the *older* report is additive
      // schema growth, not a regression.
      if (ver_base_ != ver_cand_) {
        const bool missing_on_older =
            (b == nullptr && ver_base_ < ver_cand_) ||
            (c == nullptr && ver_cand_ < ver_base_);
        if (missing_on_older) {
          record(path, b, c, /*tolerated=*/true, "schema-compat");
          return;
        }
      }
      record(path, b, c, /*tolerated=*/false, {});
      return;
    }

    if (b->type() != c->type()) {
      if (!ignored) record_structural(path, b, c);
      return;
    }

    switch (b->type()) {
      case Json::Type::Null:
        return;
      case Json::Type::Bool:
        if (!ignored && b->as_bool() != c->as_bool()) {
          record(path, b, c, false, {});
        }
        return;
      case Json::Type::String:
        if (!ignored && b->as_string() != c->as_string()) {
          record(path, b, c, false, {});
        }
        return;
      case Json::Type::Number:
        if (!ignored) diff_number(path, *b, *c, rule);
        return;
      case Json::Type::Array: {
        if (!ignored && b->size() != c->size()) record_structural(path, b, c);
        const std::size_t n = b->size() < c->size() ? b->size() : c->size();
        for (std::size_t i = 0; i < n; ++i) {
          diff_value(path + "." + std::to_string(i), &b->at(i), &c->at(i));
        }
        return;
      }
      case Json::Type::Object: {
        // Baseline key order first, then candidate-only keys, so the
        // listing reads in report order.
        for (std::size_t i = 0; i < b->size(); ++i) {
          const auto& [key, bv] = b->entry(i);
          diff_value(path.empty() ? key : path + "." + key, &bv,
                     c->find(key));
        }
        for (std::size_t i = 0; i < c->size(); ++i) {
          const auto& [key, cv] = c->entry(i);
          if (b->find(key) == nullptr) {
            diff_value(path.empty() ? key : path + "." + key, nullptr, &cv);
          }
        }
        return;
      }
      case Json::Type::Rendered:
        return;  // never produced by parse()
    }
  }

 private:
  void diff_number(const std::string& path, const Json& b, const Json& c,
                   const ToleranceRule* rule) {
    if (b.number_lexeme() == c.number_lexeme()) return;
    const double vb = b.as_double();
    const double vc = c.as_double();
    if (vb == vc) return;  // lexeme-only difference, e.g. "1.0" vs "1"

    Divergence d;
    d.cls = classify(path);
    d.path = path;
    d.baseline = b.number_lexeme();
    d.candidate = c.number_lexeme();
    d.numeric = true;
    d.delta = vc - vb;
    d.pct = vb == 0.0 ? std::numeric_limits<double>::infinity()
                      : 100.0 * d.delta / std::fabs(vb);

    if (path == "schema_version") {
      // Both versions already validated as supported; the bump itself is
      // the expected v1->v2 compatibility divergence.
      d.tolerated = true;
      d.rule = "schema-compat";
    } else if (rule != nullptr) {
      const bool abs_ok = rule->has_abs && std::fabs(d.delta) <= rule->abs_bound;
      const bool rel_ok = rule->has_rel && std::isfinite(d.pct) &&
                          std::fabs(d.pct) <= rule->rel_bound;
      if (abs_ok || rel_ok) {
        d.tolerated = true;
        d.rule = rule->text;
      }
    }
    push(std::move(d));
  }

  void record_structural(const std::string& path, const Json* b,
                         const Json* c) {
    Divergence d;
    d.cls = DiffClass::Structure;
    d.path = path;
    d.baseline = render(b);
    d.candidate = render(c);
    push(std::move(d));
  }

  void record(const std::string& path, const Json* b, const Json* c,
              bool tolerated, std::string rule) {
    Divergence d;
    d.cls = classify(path);
    d.path = path;
    d.baseline = render(b);
    d.candidate = render(c);
    d.tolerated = tolerated;
    d.rule = std::move(rule);
    push(std::move(d));
  }

  void push(Divergence d) {
    if (d.tolerated) {
      ++result_.tolerated;
    } else {
      ++result_.regressions;
    }
    result_.divergences.push_back(std::move(d));
  }

  const ToleranceSet& tol_;
  std::uint64_t ver_base_;
  std::uint64_t ver_cand_;
  DiffResult result_;
};

}  // namespace

DiffResult diff_reports(const Json& baseline, const Json& candidate,
                        const ToleranceSet& tolerances) {
  const std::uint64_t vb = report_version(baseline, "baseline");
  const std::uint64_t vc = report_version(candidate, "candidate");
  Differ differ(tolerances, vb, vc);
  differ.diff_value("", &baseline, &candidate);
  return differ.take();
}

void print_diff(std::ostream& os, const DiffResult& result) {
  for (const auto& d : result.divergences) {
    os << "[" << diff_class_name(d.cls) << "] " << d.path << ": "
       << d.baseline << " -> " << d.candidate;
    if (d.numeric) {
      char buf[96];
      if (std::isfinite(d.pct)) {
        std::snprintf(buf, sizeof(buf), " (%+.6g, %+.2f%%)", d.delta, d.pct);
      } else {
        std::snprintf(buf, sizeof(buf), " (%+.6g, from zero)", d.delta);
      }
      os << buf;
    }
    if (d.tolerated) {
      os << "  ok";
      if (!d.rule.empty()) os << " (" << d.rule << ")";
    } else {
      os << "  REGRESSION";
    }
    os << "\n";
  }
  if (result.divergences.empty()) {
    os << "diff: reports are identical (exit 0)\n";
  } else {
    os << "diff: " << result.divergences.size() << " divergence"
       << (result.divergences.size() == 1 ? "" : "s") << ": "
       << result.tolerated << " tolerated, " << result.regressions
       << " regression" << (result.regressions == 1 ? "" : "s") << " (exit "
       << static_cast<int>(result.outcome) << ")\n";
  }
}

void print_diff_summary(std::ostream& os, const DiffResult& result) {
  const char* verdict = "IDENTICAL";
  if (result.outcome == DiffOutcome::WithinTolerance) verdict = "OK";
  if (result.outcome == DiffOutcome::Regression) verdict = "REGRESSION";
  os << "diff: " << verdict << " divergences=" << result.divergences.size()
     << " tolerated=" << result.tolerated
     << " regressions=" << result.regressions
     << " exit=" << static_cast<int>(result.outcome) << "\n";
}

}  // namespace cico::obs

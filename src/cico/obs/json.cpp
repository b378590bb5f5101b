#include "cico/obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace cico::obs {

Json Json::boolean(bool b) {
  Json j;
  j.type_ = Type::Bool;
  j.bool_ = b;
  return j;
}

Json Json::number(std::uint64_t v) { return raw_number(std::to_string(v)); }
Json Json::number(std::int64_t v) { return raw_number(std::to_string(v)); }

Json Json::number(double v) {
  // %.17g round-trips any double; shorten when fewer digits suffice so the
  // common ratios stay readable.  Deterministic for equal inputs, which is
  // all the byte-identity guarantee needs.
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return raw_number(buf);
}

Json Json::raw_number(std::string lexeme) {
  Json j;
  j.type_ = Type::Number;
  j.scalar_ = std::move(lexeme);
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.type_ = Type::String;
  j.scalar_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::Object;
  return j;
}

Json Json::rendered_array() {
  Json j;
  j.type_ = Type::Rendered;
  return j;
}

void Json::push_back(Json v) {
  if (type_ == Type::Rendered) {
    std::ostringstream os;
    if (!scalar_.empty()) os << ",\n";
    v.dump_indented(os, 0);
    scalar_ += os.view();
    return;
  }
  if (type_ != Type::Array) throw std::logic_error("json: push_back on non-array");
  arr_.push_back(std::move(v));
}

void Json::set(std::string_view key, Json v) {
  if (type_ != Type::Object) throw std::logic_error("json: set on non-object");
  for (auto& [k, old] : obj_) {
    if (k == key) {
      old = std::move(v);
      return;
    }
  }
  obj_.emplace_back(std::string(key), std::move(v));
}

std::uint64_t Json::as_u64() const {
  std::uint64_t v = 0;
  const auto [p, ec] =
      std::from_chars(scalar_.data(), scalar_.data() + scalar_.size(), v);
  if (ec != std::errc() || p != scalar_.data() + scalar_.size()) {
    throw std::runtime_error("json: number is not a u64: " + scalar_);
  }
  return v;
}

double Json::as_double() const { return std::strtod(scalar_.c_str(), nullptr); }

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::size_t Json::size() const {
  if (type_ == Type::Array) return arr_.size();
  if (type_ == Type::Object) return obj_.size();
  return 0;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void write_json_string(std::ostream& os, std::string_view s) {
  os.put('"');
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os.put(ch);
        }
    }
  }
  os.put('"');
}

namespace {
void put_indent(std::ostream& os, int depth) {
  for (int i = 0; i < depth * 2; ++i) os.put(' ');
}
}  // namespace

void Json::dump_indented(std::ostream& os, int depth) const {
  switch (type_) {
    case Type::Null: os << "null"; break;
    case Type::Bool: os << (bool_ ? "true" : "false"); break;
    case Type::Number: os << scalar_; break;
    case Type::String: write_json_string(os, scalar_); break;
    case Type::Rendered:
      if (scalar_.empty()) {
        os << "[]";
        break;
      }
      // The element text was dumped at depth 0; shifting every line one
      // level past the array's own indent gives the canonical layout.
      // No canonical line is empty and strings escape '\n', so every
      // newline in the text ends a line.
      os << "[\n";
      for (std::size_t pos = 0; pos <= scalar_.size();) {
        std::size_t eol = scalar_.find('\n', pos);
        if (eol == std::string::npos) eol = scalar_.size();
        put_indent(os, depth + 1);
        os.write(scalar_.data() + pos,
                 static_cast<std::streamsize>(eol - pos));
        os.put('\n');
        pos = eol + 1;
      }
      put_indent(os, depth);
      os.put(']');
      break;
    case Type::Array:
      if (arr_.empty()) {
        os << "[]";
        break;
      }
      os << "[\n";
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        put_indent(os, depth + 1);
        arr_[i].dump_indented(os, depth + 1);
        if (i + 1 < arr_.size()) os.put(',');
        os.put('\n');
      }
      put_indent(os, depth);
      os.put(']');
      break;
    case Type::Object:
      if (obj_.empty()) {
        os << "{}";
        break;
      }
      os << "{\n";
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        put_indent(os, depth + 1);
        write_json_string(os, obj_[i].first);
        os << ": ";
        obj_[i].second.dump_indented(os, depth + 1);
        if (i + 1 < obj_.size()) os.put(',');
        os.put('\n');
      }
      put_indent(os, depth);
      os.put('}');
      break;
  }
}

void Json::dump(std::ostream& os) const {
  dump_indented(os, 0);
  os.put('\n');
}

std::string Json::dump_string() const {
  std::ostringstream os;
  dump(os);
  return std::move(os).str();
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json document() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing junk after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw std::runtime_error("json: line " + std::to_string(line) + ":" +
                             std::to_string(col) + ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  Json value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return Json::string(string_token());
    if (c == 't') {
      if (!consume_word("true")) fail("bad literal");
      return Json::boolean(true);
    }
    if (c == 'f') {
      if (!consume_word("false")) fail("bad literal");
      return Json::boolean(false);
    }
    if (c == 'n') {
      if (!consume_word("null")) fail("bad literal");
      return Json{};
    }
    if (c == '-' || (c >= '0' && c <= '9')) return number_token();
    fail("unexpected character");
  }

  Json object() {
    expect('{');
    Json o = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return o;
    }
    for (;;) {
      skip_ws();
      std::string key = string_token();
      skip_ws();
      expect(':');
      o.set(key, value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return o;
    }
  }

  Json array() {
    expect('[');
    Json a = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return a;
    }
    for (;;) {
      a.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return a;
    }
  }

  std::string string_token() {
    if (peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The writer only emits \u00xx for control bytes; decode the
          // BMP code point as UTF-8 for completeness.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json number_token() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("bad number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("bad number: no digits after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (digits() == 0) fail("bad number: no exponent digits");
    }
    return Json::raw_number(std::string(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).document(); }

}  // namespace cico::obs

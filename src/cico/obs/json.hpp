// Minimal deterministic JSON document model for the observability layer.
//
// The run report must be byte-identical across runs and hosts (report_test
// and the CI report gate compare its bytes), so this writer
// makes every formatting decision explicit: object keys keep insertion
// order, numbers keep their exact source lexeme, and dump() emits one
// canonical layout.  parse() keeps numeric lexemes verbatim, so
// parse(dump(v)) round-trips byte-for-byte -- the schema-stability check
// the tests and the CI report gate rely on.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cico::obs {

class Json {
 public:
  enum class Type : std::uint8_t {
    Null, Bool, Number, String, Array, Object,
    /// An array that keeps its elements as canonical text, not as nodes
    /// (see rendered_array()).  Never produced by parse().
    Rendered,
  };

  Json() = default;  // null

  [[nodiscard]] static Json boolean(bool b);
  [[nodiscard]] static Json number(std::uint64_t v);
  [[nodiscard]] static Json number(std::int64_t v);
  [[nodiscard]] static Json number(double v);
  /// Number from a pre-formatted lexeme (parser / custom formatting).
  [[nodiscard]] static Json raw_number(std::string lexeme);
  [[nodiscard]] static Json string(std::string s);
  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();
  /// An array whose push_back renders each element once into its
  /// canonical text and keeps only that text; dump() indents it to where
  /// the array sits, so the bytes equal those of array() holding the same
  /// elements.  A long series (a report's epoch rows) then costs its
  /// report text, not a node tree per element.  Write-only: size() and
  /// at() see no elements -- parse the dump to read them back.
  [[nodiscard]] static Json rendered_array();

  [[nodiscard]] Type type() const { return type_; }

  // --- building ------------------------------------------------------------
  /// Appends to an array (the value must be an array or rendered array).
  void push_back(Json v);
  /// Sets a key on an object (insertion-ordered; replaces an existing key).
  void set(std::string_view key, Json v);

  // --- reading -------------------------------------------------------------
  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const { return scalar_; }
  [[nodiscard]] const std::string& number_lexeme() const { return scalar_; }

  /// Object lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// Element count of an array or object (0 for scalars).
  [[nodiscard]] std::size_t size() const;
  /// Array element access.
  [[nodiscard]] const Json& at(std::size_t i) const { return arr_[i]; }
  /// Object entry access (insertion order).
  [[nodiscard]] const std::pair<std::string, Json>& entry(std::size_t i) const {
    return obj_[i];
  }

  // --- serialization -------------------------------------------------------
  /// Canonical multi-line form, 2-space indent per level.
  void dump(std::ostream& os) const;
  [[nodiscard]] std::string dump_string() const;

  /// Parses a complete JSON document; rejects trailing junk.  Throws
  /// std::runtime_error with a line:column position on malformed input.
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  void dump_indented(std::ostream& os, int depth) const;

  Type type_ = Type::Null;
  bool bool_ = false;
  /// Number lexeme, string payload, or a rendered array's element text:
  /// each element dumped at depth 0, joined by ",\n".
  std::string scalar_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// JSON string escaping (exposed for the Chrome trace-event writer, which
/// streams events without building a document).
void write_json_string(std::ostream& os, std::string_view s);

}  // namespace cico::obs

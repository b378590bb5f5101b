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
#include <functional>
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
    /// An array whose element bytes live outside the document (streamed to
    /// a sidecar file); dump() asks a SpliceResolver to emit them.  Never
    /// produced by parse() -- a dumped document contains only plain JSON.
    Splice,
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
  /// Placeholder for an array whose elements were streamed to a sidecar
  /// (see EpochStreamWriter); `id` names the sidecar for the resolver.
  [[nodiscard]] static Json splice(std::string id);

  [[nodiscard]] Type type() const { return type_; }

  // --- building ------------------------------------------------------------
  /// Appends to an array (the value must be an array).
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
  /// Called for each Splice node: must emit the element lines exactly as
  /// the canonical array dump would (indent + element, ",\n" separators,
  /// trailing newline after the last element).  EpochStreamWriter's
  /// sidecars are written in this form, so splice_into() just copies.
  using SpliceResolver =
      std::function<void(std::ostream& os, std::string_view id)>;

  /// Canonical multi-line form, 2-space indent per level.  Documents
  /// holding Splice nodes need the resolver overload; the plain overload
  /// throws std::logic_error if it meets one.
  void dump(std::ostream& os) const;
  void dump(std::ostream& os, const SpliceResolver& resolver) const;
  [[nodiscard]] std::string dump_string() const;

  /// Dumps as an array/object element nested `depth` levels deep, without
  /// a trailing newline -- exactly the bytes dump() would emit for this
  /// value at that position.  The streaming epoch writer uses this to
  /// format sidecar rows identically to the embedded path.
  void dump_element(std::ostream& os, int depth) const;

  /// Parses a complete JSON document; rejects trailing junk.  Throws
  /// std::runtime_error with a line:column position on malformed input.
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  void dump_indented(std::ostream& os, int depth,
                     const SpliceResolver* resolver) const;

  Type type_ = Type::Null;
  bool bool_ = false;
  std::string scalar_;  ///< number lexeme, string payload, or splice id
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// JSON string escaping (exposed for the Chrome trace-event writer, which
/// streams events without building a document).
void write_json_string(std::ostream& os, std::string_view s);

}  // namespace cico::obs

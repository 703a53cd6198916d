#pragma once
// A small, dependency-free JSON value type with a recursive-descent parser
// and a pretty-printing serializer.  Used for workflow descriptions, system
// specifications, and trace export.
//
// Design notes:
//   * Objects preserve insertion order (std::vector of pairs) so that
//     serialized specs remain diff-friendly.
//   * Numbers are stored as double; this library never needs 64-bit-exact
//     integers larger than 2^53.
//   * Accessors throw wfr::util::ParseError / NotFound on type mismatches
//     so that malformed input files produce actionable messages.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wfr::util {

class Json;

using JsonArray = std::vector<Json>;
using JsonMember = std::pair<std::string, Json>;

/// An ordered JSON object (preserves member insertion order).
class JsonObject {
 public:
  /// Inserts or overwrites member `key`.
  void set(std::string key, Json value);

  /// True when the object has a member named `key`.
  bool contains(std::string_view key) const;

  /// Returns the member named `key`; throws NotFound when absent.
  const Json& at(std::string_view key) const;

  /// Returns the member named `key` or nullptr when absent.
  const Json* find(std::string_view key) const;

  const std::vector<JsonMember>& members() const { return members_; }
  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

 private:
  std::vector<JsonMember> members_;
};

/// A JSON value: null, bool, number, string, array, or object.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double d) : type_(Type::kNumber), number_(d) {}
  Json(int i) : type_(Type::kNumber), number_(i) {}
  Json(std::int64_t i) : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Json(std::size_t i) : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(JsonArray a) : type_(Type::kArray), array_(std::move(a)) {}
  Json(JsonObject o) : type_(Type::kObject), object_(std::move(o)) {}

  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw ParseError when the value has a different type.
  double as_number() const;
  /// as_number() narrowed and checked to be integral.
  std::int64_t as_int() const;
  /// as_int() checked to lie in [lo, hi] before the caller narrows it:
  /// loaders read every integer field through this, so 2^32 + 2 is
  /// rejected instead of silently becoming 2.  Throws ParseError naming
  /// `field`, the range and the value.
  std::int64_t as_int_in(std::int64_t lo, std::int64_t hi,
                         std::string_view field) const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object member access; throws when not an object / key absent.
  const Json& at(std::string_view key) const;

  /// Returns object member `key` as a double, or `fallback` when absent.
  double number_or(std::string_view key, double fallback) const;
  /// Returns object member `key` as a string, or `fallback` when absent.
  std::string string_or(std::string_view key, std::string fallback) const;

  /// Parses JSON text.  Throws ParseError with a line/column message.
  /// Hardened against hostile input: containers nested deeper than 128
  /// levels, numbers outside the double range (e.g. 1e999), and UTF-16
  /// surrogate \u escapes are all rejected.
  static Json parse(std::string_view text);

  /// Serializes compactly (no whitespace).
  std::string dump() const;

  /// Serializes with 2-space indentation.
  std::string pretty() const;

  bool operator==(const Json& other) const;

 private:
  void write(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
};

/// Appends `s` to `out` as a JSON string literal (quotes included), using
/// exactly the serializer's escaping rules.  For hot paths that build
/// NDJSON rows into a reused buffer without materializing Json values.
void json_append_escaped(std::string& out, std::string_view s);

}  // namespace wfr::util

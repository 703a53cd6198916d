#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace wfr::util {

// --- JsonObject ------------------------------------------------------------

void JsonObject::set(std::string key, Json value) {
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
}

bool JsonObject::contains(std::string_view key) const {
  return find(key) != nullptr;
}

const Json* JsonObject::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& JsonObject::at(std::string_view key) const {
  const Json* v = find(key);
  if (v == nullptr) throw NotFound("missing JSON member '" + std::string(key) + "'");
  return *v;
}

// --- Typed accessors --------------------------------------------------------

namespace {
const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "bool";
    case Json::Type::kNumber: return "number";
    case Json::Type::kString: return "string";
    case Json::Type::kArray: return "array";
    case Json::Type::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void type_error(Json::Type actual, const char* wanted) {
  throw ParseError(std::string("JSON type mismatch: wanted ") + wanted +
                   ", got " + type_name(actual));
}
}  // namespace

double Json::as_number() const {
  if (type_ != Type::kNumber) type_error(type_, "number");
  return number_;
}

std::int64_t Json::as_int() const {
  const double d = as_number();
  const double r = std::nearbyint(d);
  if (!(std::fabs(d - r) <= 1e-9))
    throw ParseError(format("JSON number %g is not an integer", d));
  // 2^63 is the first double at or beyond which the int64 cast is undefined.
  if (!(std::fabs(r) < 9223372036854775808.0))
    throw ParseError(format("JSON number %g is out of integer range", d));
  return static_cast<std::int64_t>(r);
}

std::int64_t Json::as_int_in(std::int64_t lo, std::int64_t hi,
                             std::string_view field) const {
  if (type_ == Type::kNumber) {
    const double r = std::nearbyint(number_);
    if (std::fabs(number_ - r) <= 1e-9 &&
        std::fabs(r) < 9223372036854775808.0) {
      const auto value = static_cast<std::int64_t>(r);
      if (value >= lo && value <= hi) return value;
    }
  }
  const std::string got =
      type_ == Type::kNumber ? format_double(number_) : type_name(type_);
  throw ParseError(format("%s must be an integer in [%lld, %lld], got %s",
                          std::string(field).c_str(),
                          static_cast<long long>(lo),
                          static_cast<long long>(hi), got.c_str()));
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error(type_, "string");
  return string_;
}

const JsonArray& Json::as_array() const {
  if (type_ != Type::kArray) type_error(type_, "array");
  return array_;
}

const JsonObject& Json::as_object() const {
  if (type_ != Type::kObject) type_error(type_, "object");
  return object_;
}

const Json& Json::at(std::string_view key) const { return as_object().at(key); }

double Json::number_or(std::string_view key, double fallback) const {
  const Json* v = as_object().find(key);
  return v == nullptr ? fallback : v->as_number();
}

std::string Json::string_or(std::string_view key, std::string fallback) const {
  const Json* v = as_object().find(key);
  return v == nullptr ? fallback : v->as_string();
}

// --- Parser ------------------------------------------------------------------

namespace {

class Parser {
 public:
  // Containers deeper than this are rejected rather than risking stack
  // overflow in the recursive descent; real spec files nest a handful deep.
  static constexpr int kMaxDepth = 128;

  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw ParseError(format("JSON parse error at line %zu col %zu: %s", line,
                            col, message.c_str()));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        // Allow // line comments in spec files.
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(format("expected '%c'", c));
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    if (++depth_ > kMaxDepth) fail("JSON nesting exceeds depth limit");
    JsonObject obj;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return Json(std::move(obj));
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_whitespace();
      const char d = take();
      if (d == '}') break;
      if (d != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    --depth_;
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    if (++depth_ > kMaxDepth) fail("JSON nesting exceeds depth limit");
    JsonArray arr;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_whitespace();
      const char d = take();
      if (d == ']') break;
      if (d != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    --depth_;
    return Json(std::move(arr));
  }

  unsigned take_hex_quad() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = take();
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return code;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') break;
      if (c == '\\') {
        const char e = take();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned code = take_hex_quad();
            // A surrogate half is not a scalar value: a high surrogate
            // must pair with an immediately following \u low surrogate;
            // a lone or out-of-order half is rejected (encoding one as
            // UTF-8 would emit ill-formed CESU-8 bytes).
            if (code >= 0xDC00 && code <= 0xDFFF)
              fail("surrogate code point in \\u escape");
            if (code >= 0xD800 && code <= 0xDBFF) {
              if (take() != '\\' || take() != 'u')
                fail("surrogate code point in \\u escape");
              const unsigned low = take_hex_quad();
              if (low < 0xDC00 || low > 0xDFFF)
                fail("surrogate code point in \\u escape");
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
            // Encode the scalar value as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else if (code < 0x10000) {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xF0 | (code >> 18));
              out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("invalid escape character");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) {
      pos_ = start;
      fail("malformed number '" + num + "'");
    }
    if (!std::isfinite(d)) {
      pos_ = start;
      fail("number '" + num + "' is out of range");
    }
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void write_escaped(std::string* out, const std::string& s) {
  json_append_escaped(*out, s);
}

void write_number(std::string* out, double d) {
  // Shortest-round-trip formatting (util/strings) so JSON output, the
  // Prometheus exposition, and check repro dumps agree byte-for-byte.
  append_double(*out, d);
}

}  // namespace

void json_append_escaped(std::string& out, std::string_view s) {
  out += '"';
  // Bytes that need no escape go out in runs, one append per run.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out += format("\\u%04x", c);
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

void Json::write(std::string* out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ') : "";
  const std::string closing_pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ') : "";
  const char* nl = indent > 0 ? "\n" : "";
  const char* colon = indent > 0 ? ": " : ":";
  switch (type_) {
    case Type::kNull: *out += "null"; break;
    case Type::kBool: *out += bool_ ? "true" : "false"; break;
    case Type::kNumber: write_number(out, number_); break;
    case Type::kString: write_escaped(out, string_); break;
    case Type::kArray: {
      if (array_.empty()) {
        *out += "[]";
        break;
      }
      *out += '[';
      *out += nl;
      for (std::size_t i = 0; i < array_.size(); ++i) {
        *out += pad;
        array_[i].write(out, indent, depth + 1);
        if (i + 1 < array_.size()) *out += ',';
        *out += nl;
      }
      *out += closing_pad;
      *out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        *out += "{}";
        break;
      }
      *out += '{';
      *out += nl;
      const auto& m = object_.members();
      for (std::size_t i = 0; i < m.size(); ++i) {
        *out += pad;
        write_escaped(out, m[i].first);
        *out += colon;
        m[i].second.write(out, indent, depth + 1);
        if (i + 1 < m.size()) *out += ',';
        *out += nl;
      }
      *out += closing_pad;
      *out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(&out, 0, 0);
  return out;
}

std::string Json::pretty() const {
  std::string out;
  write(&out, 2, 0);
  return out;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return number_ == other.number_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return array_ == other.array_;
    case Type::kObject: {
      if (object_.size() != other.object_.size()) return false;
      for (const auto& [k, v] : object_.members()) {
        const Json* o = other.object_.find(k);
        if (o == nullptr || !(v == *o)) return false;
      }
      return true;
    }
  }
  return false;
}

}  // namespace wfr::util

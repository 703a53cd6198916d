#include "util/json.hpp"

#include <cstdio>
#include <random>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wfr::util {
namespace {

// json_append_escaped as first written, one byte at a time: the reference
// the bulk-appending escaper must reproduce byte for byte.
void reference_append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escape[8];
          std::snprintf(escape, sizeof(escape), "\\u%04x", c);
          out += escape;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string escaped(std::string_view s) {
  std::string out = "prefix:";
  json_append_escaped(out, s);
  return out;
}

std::string reference_escaped(std::string_view s) {
  std::string out = "prefix:";
  reference_append_escaped(out, s);
  return out;
}

TEST(Json, ParsesScalars) {
  EXPECT_EQ(Json::parse("null"), Json());
  EXPECT_EQ(Json::parse("true"), Json(true));
  EXPECT_EQ(Json::parse("false"), Json(false));
  EXPECT_TRUE(Json::parse("false").is_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("-2e3").as_number(), -2000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const Json v = Json::parse(R"({
    "name": "lcls",
    "tasks": [{"nodes": 16, "ok": true}, {"nodes": 64}]
  })");
  EXPECT_EQ(v.at("name").as_string(), "lcls");
  EXPECT_EQ(v.at("tasks").as_array().size(), 2u);
  EXPECT_EQ(v.at("tasks").as_array()[0].at("nodes").as_int(), 16);
  EXPECT_EQ(v.at("tasks").as_array()[0].at("ok"), Json(true));
}

TEST(Json, ParsesStringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\nb\t\"c\"\\")").as_string(), "a\nb\t\"c\"\\");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
}

TEST(Json, AllowsLineComments) {
  const Json v = Json::parse("{\n  // system spec\n  \"nodes\": 1792\n}");
  EXPECT_EQ(v.at("nodes").as_int(), 1792);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("[1,]"), ParseError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(Json::parse("tru"), ParseError);
  EXPECT_THROW(Json::parse("1 2"), ParseError);
  EXPECT_THROW(Json::parse(""), ParseError);
}

TEST(Json, ParseErrorReportsLineAndColumn) {
  try {
    Json::parse("{\n  \"a\": ?\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Json, TypeMismatchThrows) {
  const Json v = Json::parse("{\"a\": 1}");
  EXPECT_THROW(v.at("a").as_string(), ParseError);
  EXPECT_THROW(v.as_array(), ParseError);
  EXPECT_THROW(v.at("missing"), NotFound);
}

TEST(Json, AsIntRejectsFractions) {
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_THROW(Json::parse("42.5").as_int(), ParseError);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  JsonObject o;
  o.set("z", Json(1));
  o.set("a", Json(2));
  o.set("m", Json(3));
  const Json v(std::move(o));
  EXPECT_EQ(v.dump(), "{\"z\":1,\"a\":2,\"m\":3}");
}

TEST(Json, ObjectSetOverwrites) {
  JsonObject o;
  o.set("k", Json(1));
  o.set("k", Json(2));
  EXPECT_EQ(o.size(), 1u);
  EXPECT_DOUBLE_EQ(o.at("k").as_number(), 2.0);
}

TEST(Json, DumpRoundTrips) {
  const std::string text =
      R"({"name":"bgw","flops":4.39e+18,"tasks":[{"n":64},{"n":1024}],"ok":true,"nil":null})";
  const Json v = Json::parse(text);
  EXPECT_EQ(Json::parse(v.dump()), v);
  EXPECT_EQ(Json::parse(v.pretty()), v);
}

TEST(Json, NumberFormattingKeepsIntegersClean) {
  EXPECT_EQ(Json(28).dump(), "28");
  EXPECT_EQ(Json(5.5).dump(), "5.5");
}

TEST(Json, FallbackAccessors) {
  const Json v = Json::parse(R"({"a": 2, "s": "x"})");
  EXPECT_DOUBLE_EQ(v.number_or("a", 9.0), 2.0);
  EXPECT_DOUBLE_EQ(v.number_or("missing", 9.0), 9.0);
  EXPECT_EQ(v.string_or("s", "d"), "x");
  EXPECT_EQ(v.string_or("missing", "d"), "d");
}

TEST(JsonEscape, MatchesReferenceOnEverySingleByte) {
  for (int byte = 0; byte <= 0xff; ++byte) {
    const std::string s(1, static_cast<char>(byte));
    EXPECT_EQ(escaped(s), reference_escaped(s)) << "byte " << byte;
  }
  EXPECT_EQ(escaped("a\"b\\c\n\x01\x1f"),
            "prefix:\"a\\\"b\\\\c\\n\\u0001\\u001f\"");
}

TEST(JsonEscape, MatchesReferenceOnRandomByteStrings) {
  // Seeded strings of 0-64 bytes, half of them drawn from the bytes that
  // need escaping plus a few plain ones, so runs of every length meet
  // escapes at both ends.
  std::mt19937_64 rng(20261019);
  constexpr char kMostlyEscaped[] = "\"\\\b\f\n\r\t\x01\x1f ax\x7f\xc3";
  std::size_t mismatches = 0;
  for (int i = 0; i < 10'000; ++i) {
    const std::size_t length = rng() % 65;
    std::string s(length, '\0');
    for (char& c : s)
      c = i % 2 == 0 ? static_cast<char>(rng() & 0xff)
                     : kMostlyEscaped[rng() % (sizeof(kMostlyEscaped) - 1)];
    if (escaped(s) != reference_escaped(s) && ++mismatches <= 5)
      ADD_FAILURE() << "string " << i << " of length " << length;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Json, EqualityIsStructural) {
  EXPECT_EQ(Json::parse("[1,2,3]"), Json::parse("[1, 2, 3]"));
  EXPECT_FALSE(Json::parse("[1,2]") == Json::parse("[2,1]"));
}

}  // namespace
}  // namespace wfr::util

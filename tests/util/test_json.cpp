#include "util/json.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wfr::util {
namespace {

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

TEST(Json, EqualityIsStructural) {
  EXPECT_EQ(Json::parse("[1,2,3]"), Json::parse("[1, 2, 3]"));
  EXPECT_FALSE(Json::parse("[1,2]") == Json::parse("[2,1]"));
}

}  // namespace
}  // namespace wfr::util

// Strict numeric flag parsing (util/parse.hpp): the whole token must be
// consumed — "80x" is a typo, not port 80.

#include "util/parse.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wfr::util {
namespace {

TEST(ParseFlagTest, ParsesWellFormedValues) {
  EXPECT_EQ(parse_long_flag("port", "8080"), 8080);
  EXPECT_EQ(parse_long_flag("delta", "-12"), -12);
  EXPECT_EQ(parse_long_flag("port", "  443  "), 443);  // whitespace tolerated
  EXPECT_EQ(parse_u64_flag("seed", "18446744073709551615"),
            18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(parse_double_flag("scale", "2.5e3"), 2500.0);
}

TEST(ParseFlagTest, RejectsTrailingGarbage) {
  EXPECT_THROW(parse_long_flag("port", "80x"), InvalidArgument);
  EXPECT_THROW(parse_long_flag("port", "8 0"), InvalidArgument);
  EXPECT_THROW(parse_u64_flag("seed", "1e3"), InvalidArgument);
  EXPECT_THROW(parse_double_flag("scale", "2.5GB"), InvalidArgument);
}

TEST(ParseFlagTest, RejectsEmptyAndNonNumeric) {
  EXPECT_THROW(parse_long_flag("port", ""), InvalidArgument);
  EXPECT_THROW(parse_long_flag("port", "banana"), InvalidArgument);
  EXPECT_THROW(parse_u64_flag("seed", "-1"), InvalidArgument);
  EXPECT_THROW(parse_double_flag("scale", "."), InvalidArgument);
}

TEST(ParseFlagTest, DoubleRejectsNonFinite) {
  // strtod reads these as numbers; no caller can use them, and a sweep
  // axis value of inf used to reach the NDJSON rows as a bare `inf`.
  for (const char* text : {"inf", "-inf", "INF", "infinity", "nan", "-nan",
                           "nan(0x1)", "1e999", "-1e999"})
    EXPECT_THROW(parse_double_flag("param fs_gbs", text), InvalidArgument)
        << text;
  try {
    parse_double_flag("param fs_gbs", "inf");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "bad value for --param fs_gbs: 'inf'");
  }
  EXPECT_DOUBLE_EQ(parse_double_flag("scale", "1.7976931348623157e308"),
                   1.7976931348623157e308);
}

TEST(ParseFlagTest, ErrorNamesTheFlagAndText) {
  try {
    parse_long_flag("port", "80x");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "bad value for --port: '80x'");
  }
}

TEST(ParseFlagTest, RangeCheckedVariant) {
  EXPECT_EQ(parse_long_flag_in("port", "65535", 0, 65535), 65535);
  EXPECT_THROW(parse_long_flag_in("port", "65536", 0, 65535),
               InvalidArgument);
  EXPECT_THROW(parse_long_flag_in("jobs", "0", 1, 1024), InvalidArgument);
}

}  // namespace
}  // namespace wfr::util

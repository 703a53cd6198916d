#include "util/units.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"

namespace wfr::util {
namespace {

TEST(Units, FormatBytesPicksPrefix) {
  EXPECT_EQ(format_bytes(0.0), "0 B");
  EXPECT_EQ(format_bytes(512.0), "512 B");
  EXPECT_EQ(format_bytes(5e12), "5 TB");
  EXPECT_EQ(format_bytes(45e6), "45 MB");
  EXPECT_EQ(format_bytes(2e12), "2 TB");
}

TEST(Units, FormatRate) {
  EXPECT_EQ(format_rate(5.6e12), "5.6 TB/s");
  EXPECT_EQ(format_rate(100e9), "100 GB/s");
  EXPECT_EQ(format_rate(0.2e9), "200 MB/s");
}

TEST(Units, FormatFlops) {
  EXPECT_EQ(format_flops(1164e15), "1.16 EFLOP");
  EXPECT_EQ(format_flops(100e9), "100 GFLOP");
  EXPECT_EQ(format_flops_rate(38.8e12), "38.8 TFLOP/s");
}

TEST(Units, FormatSeconds) {
  EXPECT_EQ(format_seconds(0.0), "0 s");
  EXPECT_EQ(format_seconds(0.02), "20 ms");
  EXPECT_EQ(format_seconds(17.0 * 60.0), "17 min");
  EXPECT_EQ(format_seconds(2.5 * 3600.0), "2.5 h");
  EXPECT_EQ(format_seconds(45.0), "45 s");
}

TEST(Units, ParseBytesWithUnits) {
  EXPECT_DOUBLE_EQ(parse_bytes("5 TB"), 5e12);
  EXPECT_DOUBLE_EQ(parse_bytes("45MB"), 45e6);
  EXPECT_DOUBLE_EQ(parse_bytes("1.5 GB"), 1.5e9);
  EXPECT_DOUBLE_EQ(parse_bytes("70 GB"), 70e9);
  EXPECT_DOUBLE_EQ(parse_bytes("2e3 kB"), 2e6);
}

TEST(Units, ParseBytesBareNumberIsBytes) {
  EXPECT_DOUBLE_EQ(parse_bytes("1024"), 1024.0);
}

TEST(Units, ParseBytesRejectsRate) {
  EXPECT_THROW(parse_bytes("5 GB/s"), ParseError);
}

TEST(Units, ParseBytesRejectsGarbage) {
  EXPECT_THROW(parse_bytes("fast"), ParseError);
  EXPECT_THROW(parse_bytes("5 parsecs"), ParseError);
  EXPECT_THROW(parse_bytes(""), Error);
  // Non-finite numbers, strtod overflow, and a scaled overflow.
  for (const char* text : {"inf GB", "nan GB", "-inf", "infinity", "NAN",
                           "1e400 B", "1e300 EB"})
    EXPECT_THROW(parse_bytes(text), ParseError) << text;
}

TEST(Units, ParseRateRejectsGarbage) {
  EXPECT_THROW(parse_rate("fast/s"), ParseError);
  for (const char* text : {"inf GB/s", "nan TB/s", "1e400 B/s", "1e300 EB/s"})
    EXPECT_THROW(parse_rate(text), ParseError) << text;
}

TEST(Units, ParseFlopsRejectsGarbage) {
  EXPECT_THROW(parse_flops("many FLOP"), ParseError);
  for (const char* text : {"inf TFLOP", "nan FLOP", "1e400 FLOP",
                           "1e300 EFLOP"})
    EXPECT_THROW(parse_flops(text), ParseError) << text;
}

TEST(Units, ParseRate) {
  EXPECT_DOUBLE_EQ(parse_rate("100 GB/s"), 100e9);
  EXPECT_DOUBLE_EQ(parse_rate("5.6TB/s"), 5.6e12);
  EXPECT_DOUBLE_EQ(parse_rate("910 GB/s"), 910e9);
  EXPECT_DOUBLE_EQ(parse_rate("25 GBps"), 25e9);
}

TEST(Units, ParseRateRequiresPerSecond) {
  EXPECT_THROW(parse_rate("100 GB"), ParseError);
  EXPECT_THROW(parse_rate("100"), ParseError);
}

TEST(Units, ParseFlops) {
  EXPECT_DOUBLE_EQ(parse_flops("1164 PFLOP"), 1164e15);
  EXPECT_DOUBLE_EQ(parse_flops("100 GFLOPs"), 100e9);
  EXPECT_DOUBLE_EQ(parse_flops("9.7 TFLOP"), 9.7e12);
}

TEST(Units, ParseSeconds) {
  EXPECT_DOUBLE_EQ(parse_seconds("600 s"), 600.0);
  EXPECT_DOUBLE_EQ(parse_seconds("10 min"), 600.0);
  EXPECT_DOUBLE_EQ(parse_seconds("1.5 h"), 5400.0);
  EXPECT_DOUBLE_EQ(parse_seconds("250 ms"), 0.25);
  EXPECT_DOUBLE_EQ(parse_seconds("42"), 42.0);
}

TEST(Units, ParseSecondsRejectsUnknownUnit) {
  EXPECT_THROW(parse_seconds("3 fortnights"), ParseError);
}

TEST(Units, ParseSecondsRejectsGarbage) {
  EXPECT_THROW(parse_seconds("soon"), ParseError);
  for (const char* text : {"inf s", "nan", "-inf min", "1e400 s", "1e307 h",
                           "1e307 min"})
    EXPECT_THROW(parse_seconds(text), ParseError) << text;
  // The error names the text.
  try {
    parse_seconds("1e307 h");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("'1e307 h'"), std::string::npos)
        << e.what();
  }
}

TEST(Units, RoundTripThroughFormatAndParse) {
  // format_bytes uses %.3g, so round-trips are approximate; check within
  // the formatting precision.
  const double value = 5.6e12;
  const double parsed = parse_bytes(format_bytes(value));
  EXPECT_NEAR(parsed / value, 1.0, 1e-2);
}

}  // namespace
}  // namespace wfr::util

#include "util/units.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace wfr::util {
namespace {

// The unit formatters as first written, on snprintf: "%.3g" of the value
// scaled by the largest SI prefix its magnitude reaches (or by the
// format_seconds unit), then the prefix and unit text.  The <charconv>
// formatters must reproduce their bytes exactly; these are the reference
// for the differential tests below.
std::string reference_with_prefix(double value, const char* unit) {
  static constexpr struct {
    double factor;
    const char* symbol;
  } kReferencePrefixes[] = {{1e18, "E"}, {1e15, "P"}, {1e12, "T"}, {1e9, "G"},
                            {1e6, "M"},  {1e3, "k"},  {1.0, ""}};
  char buf[64];
  if (value == 0.0) {
    std::snprintf(buf, sizeof(buf), "0 %s", unit);
    return buf;
  }
  const double mag = std::fabs(value);
  double factor = 1.0;
  const char* symbol = "";
  for (const auto& p : kReferencePrefixes) {
    if (mag >= p.factor) {
      factor = p.factor;
      symbol = p.symbol;
      break;
    }
  }
  std::snprintf(buf, sizeof(buf), "%.3g %s%s", value / factor, symbol, unit);
  return buf;
}

std::string reference_seconds(double seconds) {
  char buf[64];
  const double mag = std::fabs(seconds);
  if (mag == 0.0) return "0 s";
  if (mag < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.3g us", seconds * 1e6);
  } else if (mag < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3g ms", seconds * 1e3);
  } else if (mag < 120.0) {
    std::snprintf(buf, sizeof(buf), "%.3g s", seconds);
  } else if (mag < 2.0 * 3600.0) {
    std::snprintf(buf, sizeof(buf), "%.3g min", seconds / 60.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3g h", seconds / 3600.0);
  }
  return buf;
}

double from_bits(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Runs every unit formatter on each value against the reference, counting
// mismatches and reporting the first few.
class UnitsDiff {
 public:
  void check(double value) {
    ++checked_;
    compare("format_bytes", value, format_bytes(value),
            reference_with_prefix(value, "B"));
    compare("format_rate", value, format_rate(value),
            reference_with_prefix(value, "B/s"));
    compare("format_flops", value, format_flops(value),
            reference_with_prefix(value, "FLOP"));
    compare("format_flops_rate", value, format_flops_rate(value),
            reference_with_prefix(value, "FLOP/s"));
    compare("format_seconds", value, format_seconds(value),
            reference_seconds(value));
  }
  // `value` and its neighbours one ulp away on each side.
  void check_with_neighbours(double value) {
    check(value);
    check(std::nextafter(value, -std::numeric_limits<double>::infinity()));
    check(std::nextafter(value, std::numeric_limits<double>::infinity()));
  }
  // The "%.3g" routine alone against snprintf's "%.3g".
  void check_g3(double value) {
    ++checked_;
    std::string got;
    append_g3(got, value);
    char want[32];
    std::snprintf(want, sizeof(want), "%.3g", value);
    compare("append_g3", value, got, want);
  }
  void check_g3_with_neighbours(double value) {
    check_g3(value);
    check_g3(std::nextafter(value, -std::numeric_limits<double>::infinity()));
    check_g3(std::nextafter(value, std::numeric_limits<double>::infinity()));
  }
  std::size_t checked() const { return checked_; }
  std::size_t mismatches() const { return mismatches_; }

 private:
  void compare(const char* formatter, double value, const std::string& got,
               const std::string& want) {
    if (got == want) return;
    if (++mismatches_ <= 5) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof(bits));
      ADD_FAILURE() << formatter << " of bits 0x" << std::hex << bits
                    << ": got '" << got << "', reference '" << want << "'";
    }
  }

  std::size_t checked_ = 0;
  std::size_t mismatches_ = 0;
};

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

// 1M random bit patterns from one seeded sequence, in 4 disjoint slices
// so that ctest -j spreads them over the cores.  Slice k checks patterns
// [k * 250000, (k + 1) * 250000).
constexpr int kRandomPatterns = 1'000'000;
constexpr int kRandomSlices = 4;
static_assert(kRandomPatterns % kRandomSlices == 0);

class UnitsFormatRandom : public ::testing::TestWithParam<int> {};

TEST_P(UnitsFormatRandom, MatchesReferenceOnRandomBitPatterns) {
  constexpr int per_slice = kRandomPatterns / kRandomSlices;
  std::mt19937_64 rng(20240612);
  rng.discard(static_cast<unsigned long long>(GetParam()) * per_slice);
  UnitsDiff diff;
  for (int i = 0; i < per_slice; ++i) diff.check(from_bits(rng()));
  std::printf("slice %d of %d: %zu of %d patterns checked\n", GetParam(),
              kRandomSlices, diff.checked(), kRandomPatterns);
  EXPECT_EQ(diff.checked(), static_cast<std::size_t>(per_slice));
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
}

INSTANTIATE_TEST_SUITE_P(Slices, UnitsFormatRandom,
                         ::testing::Range(0, kRandomSlices));

TEST(UnitsFormat, MatchesReferenceOnLogSpreadMagnitudes) {
  // Random bit patterns are mostly far outside any unit's range; these are
  // the magnitudes models print, from nanoseconds to exabytes.
  std::mt19937_64 rng(20240613);
  std::uniform_real_distribution<double> exponent(-12.0, 24.0);
  UnitsDiff diff;
  for (int i = 0; i < 200'000; ++i) {
    const double value = std::pow(10.0, exponent(rng));
    diff.check(value);
    diff.check(-value);
  }
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
}

TEST(UnitsFormat, MatchesReferenceAtPrefixThresholds) {
  // Each prefix factor 1e3^k, where the prefix changes, and the two
  // values that round either side of "1e+03" under %.3g at that prefix.
  UnitsDiff diff;
  for (const double factor : {1.0, 1e3, 1e6, 1e9, 1e12, 1e15, 1e18}) {
    for (const double sign : {1.0, -1.0}) {
      diff.check_with_neighbours(sign * factor);
      diff.check_with_neighbours(sign * 999.5 * factor);
      diff.check_with_neighbours(sign * 999.4999 * factor);
    }
  }
  EXPECT_EQ(diff.checked(), 7u * 2u * 3u * 3u);
  EXPECT_EQ(diff.mismatches(), 0u);
}

TEST(UnitsFormat, MatchesReferenceAtSecondsThresholds) {
  // format_seconds switches unit at 1 ms, 1 s, 120 s and 2 h.
  UnitsDiff diff;
  for (const double threshold : {1e-3, 1.0, 120.0, 7200.0}) {
    diff.check_with_neighbours(threshold);
    diff.check_with_neighbours(-threshold);
  }
  EXPECT_EQ(diff.mismatches(), 0u);
}

TEST(UnitsFormat, MatchesReferenceOnDecadeCarries) {
  // The prefix or unit is chosen before %.3g rounds, so these print a
  // carried "1e+03" (or "120 min"): the bytes to keep, quirks included.
  UnitsDiff diff;
  for (const double value : {999.6e9, 0.00099996, 7199.99, 0.99996, 119.996,
                             999.96, 999.6e-9, 1e21, 999.96e18})
    diff.check_with_neighbours(value);
  EXPECT_EQ(diff.mismatches(), 0u);
  EXPECT_EQ(format_bytes(999.6e9), "1e+03 GB");
  EXPECT_EQ(format_seconds(0.00099996), "1e+03 us");
  EXPECT_EQ(format_seconds(7199.99), "120 min");
}

TEST(UnitsFormat, MatchesReferenceOnSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double min = std::numeric_limits<double>::min();
  UnitsDiff diff;
  for (const double value :
       {0.0, -0.0, inf, -inf, nan, -nan, denorm, -denorm, min, -min,
        min / 3.0, -min / 7.0, std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(), -1.0, -5.6e12, -0.02})
    diff.check(value);
  EXPECT_EQ(diff.mismatches(), 0u);
  EXPECT_EQ(format_bytes(-0.0), "0 B");
  EXPECT_EQ(format_seconds(-0.0), "0 s");
  EXPECT_EQ(format_rate(-inf), "-inf EB/s");
}

// The double nearest the decimal d.dd5 * 10^k (d = 100..999), a
// rounding tie of "%.3g" unless the conversion moved it off.
double three_digit_tie(int d, int k) {
  char text[32];
  std::snprintf(text, sizeof(text), "%d.%02d5e%d", d / 100, d % 100, k);
  return std::strtod(text, nullptr);
}

TEST(UnitsFormat, G3MatchesReferenceOnDecimalTies) {
  // Every d.dd5 * 10^k from decimal exponent -6 to 23, the fast path's
  // range [1e-4, 1e22) and a decade or two beyond it, with both
  // neighbours and both signs.  d = 999 sits at the carry into the next
  // decade.
  UnitsDiff diff;
  for (int k = -6; k <= 23; ++k) {
    for (int d = 100; d <= 999; ++d) {
      const double tie = three_digit_tie(d, k);
      diff.check_g3_with_neighbours(tie);
      diff.check_g3_with_neighbours(-tie);
    }
  }
  EXPECT_EQ(diff.checked(), 30u * 900u * 6u);
  EXPECT_EQ(diff.mismatches(), 0u);
}

TEST(UnitsFormat, MatchesReferenceOnDecimalTiesInEverySiBand) {
  // The same ties through every formatter, from 1e-12 (picoseconds as
  // "us") to 1e24 (beyond exa), so each prefix and time unit sees them.
  UnitsDiff diff;
  for (int k = -12; k <= 24; ++k) {
    for (int d = 100; d <= 999; ++d) {
      const double tie = three_digit_tie(d, k);
      diff.check_with_neighbours(tie);
      diff.check_with_neighbours(-tie);
    }
  }
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
}

TEST(UnitsFormat, G3MatchesReferenceOnExactBinaryTies) {
  // Values whose three-digit rounding is an exact tie, which printf
  // breaks to the even digit: n / 2^j (112.5, 1.125, 0.5625, ...) and
  // the integers (10d + 5) * 10^j.
  UnitsDiff diff;
  for (int j = 0; j <= 14; ++j)
    for (int n = 1; n < 8192; ++n)
      diff.check_g3(std::ldexp(static_cast<double>(n), -j));
  for (int d = 100; d <= 999; ++d) {
    double value = 10.0 * d + 5.0;
    for (int j = 0; j <= 15; ++j, value *= 10.0) {
      diff.check_g3(value);
      diff.check_g3(-value);
    }
  }
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
  std::string text;
  append_g3(text, 112.5);
  EXPECT_EQ(text, "112");
  text.clear();
  append_g3(text, 113.5);
  EXPECT_EQ(text, "114");
}

TEST(UnitsFormat, G3MatchesReferenceOnCarriesPowersAndRangeEdges) {
  UnitsDiff diff;
  // Carries to the next decade, in fixed and scientific notation.
  for (int k = -7; k <= 23; ++k) {
    diff.check_g3_with_neighbours(std::strtod(
        ("9.995e" + std::to_string(k)).c_str(), nullptr));
    diff.check_g3_with_neighbours(std::strtod(
        ("9.9949999e" + std::to_string(k)).c_str(), nullptr));
  }
  // Every power of ten 10^k, within the table and beyond, +- 1 ulp.
  for (int k = -30; k <= 30; ++k) {
    const double power = std::strtod(("1e" + std::to_string(k)).c_str(),
                                     nullptr);
    diff.check_g3_with_neighbours(power);
    diff.check_g3_with_neighbours(-power);
  }
  // Just inside and outside [1e-4, 1e22): eight ulps each way, both signs.
  for (const double edge : {1e-4, 1e22, 9.9995e-5, 9.995e21, 9.9995e21}) {
    double below = edge;
    double above = edge;
    for (int i = 0; i < 8; ++i) {
      for (const double value : {below, above}) {
        diff.check_g3(value);
        diff.check_g3(-value);
      }
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, 2.0 * edge);
    }
  }
  // Zeros, subnormals, the smallest normal, the largest finite, inf, NaN.
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double min = std::numeric_limits<double>::min();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double value :
       {0.0, -0.0, inf, -inf, nan, -nan, denorm, 3.0 * denorm, min / 3.0,
        std::nextafter(min, 0.0), min, std::numeric_limits<double>::max()}) {
    diff.check_g3(value);
    diff.check_g3(-value);
  }
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
  const std::pair<double, const char*> examples[] = {
      {999.5, "1e+03"},      {0.00099996, "0.001"}, {99.96, "100"},
      {-1.5e4, "-1.5e+04"},  {0.000123456, "0.000123"},
      {1e21, "1e+21"},       {9.9996e21, "1e+22"},  {-0.0, "-0"}};
  for (const auto& [value, want] : examples) {
    std::string text;
    append_g3(text, value);
    EXPECT_EQ(text, want) << value;
  }
}

}  // namespace
}  // namespace wfr::util

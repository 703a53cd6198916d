#include "util/strings.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace wfr::util {
namespace {

// The shortest-round-trip formatter as first written, on snprintf and
// strtod: "%.0f" for integers below 1e15, else the first "%.{p}g" from
// p = 1 that parses back to the input.  format_double must reproduce its
// bytes exactly; it is the reference for the differential tests below.
std::string reference_format_double(double value) {
  char buf[40];
  if (value == std::nearbyint(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double from_bits(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Counts values whose format_double bytes differ from the reference,
// reporting the first few.
class FormatDiff {
 public:
  void check(double value) {
    ++checked_;
    const std::string got = format_double(value);
    const std::string want = reference_format_double(value);
    if (got == want) return;
    if (++mismatches_ <= 5) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof(bits));
      ADD_FAILURE() << "bits 0x" << std::hex << bits << ": got '" << got
                    << "', reference '" << want << "'";
    }
  }
  std::size_t checked() const { return checked_; }
  std::size_t mismatches() const { return mismatches_; }

 private:
  std::size_t checked_ = 0;
  std::size_t mismatches_ = 0;
};

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nhi\r "), "hi");
}

TEST(Strings, TrimKeepsInteriorWhitespace) {
  EXPECT_EQ(trim("  a b  "), "a b");
}

TEST(Strings, TrimEmptyAndAllWhitespace) {
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("GB/s MiXeD"), "gb/s mixed");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("workflow", "work"));
  EXPECT_FALSE(starts_with("work", "workflow"));
  EXPECT_TRUE(ends_with("5.6TB/s", "B/s"));
  EXPECT_FALSE(ends_with("B/s", "5.6TB/s"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Strings, RepeatAndPad) {
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("abcdef", 3), "abcdef");
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d tasks at %.1f GB/s", 28, 5.6), "28 tasks at 5.6 GB/s");
  EXPECT_EQ(format("plain"), "plain");
}

TEST(FormatDouble, ShortestRoundTripExamples) {
  EXPECT_EQ(format_double(42.0), "42");
  EXPECT_EQ(format_double(-0.0), "-0");
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(format_double(1e15), "1e+15");
  EXPECT_EQ(format_double(123456789012345.0), "123456789012345");
  EXPECT_EQ(format_double(2.5e-7), "2.5e-07");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "inf");
  std::string out = "x=";
  append_double(out, 0.25);
  EXPECT_EQ(out, "x=0.25");
}

// 1M random bit patterns from one seeded sequence, in 8 disjoint slices
// so that ctest -j spreads the reference's snprintf/strtod rounds over
// the cores.  Slice k checks patterns [k * 125000, (k + 1) * 125000).
constexpr int kRandomPatterns = 1'000'000;
constexpr int kRandomSlices = 8;
static_assert(kRandomPatterns % kRandomSlices == 0);

class FormatDoubleRandom : public ::testing::TestWithParam<int> {};

TEST_P(FormatDoubleRandom, MatchesReferenceOnRandomBitPatterns) {
  constexpr int per_slice = kRandomPatterns / kRandomSlices;
  std::mt19937_64 rng(20240611);
  rng.discard(static_cast<unsigned long long>(GetParam()) * per_slice);
  FormatDiff diff;
  for (int i = 0; i < per_slice; ++i) diff.check(from_bits(rng()));
  std::printf("slice %d of %d: %zu of %d patterns checked\n", GetParam(),
              kRandomSlices, diff.checked(), kRandomPatterns);
  EXPECT_EQ(diff.checked(), static_cast<std::size_t>(per_slice));
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
}

INSTANTIATE_TEST_SUITE_P(Slices, FormatDoubleRandom,
                         ::testing::Range(0, kRandomSlices));

TEST(FormatDouble, MatchesReferenceOnPowersOfTwoAndNeighbours) {
  // The binary exponent boundaries, where the gap below a value is half
  // the gap above it and the shortest digit count is most likely to need
  // one more digit under %g.
  FormatDiff diff;
  for (int e = -1074; e <= 1023; ++e) {
    for (const double sign : {1.0, -1.0}) {
      const double p = sign * std::ldexp(1.0, e);
      diff.check(p);
      diff.check(std::nextafter(p, 0.0));
      diff.check(std::nextafter(p, sign * std::numeric_limits<double>::max()));
    }
  }
  EXPECT_EQ(diff.checked(), 2098u * 6u);
  EXPECT_EQ(diff.mismatches(), 0u);
}

TEST(FormatDouble, MatchesReferenceOnSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  FormatDiff diff;
  for (const double value :
       {0.0, -0.0, inf, -inf, nan, -nan, std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::epsilon()})
    diff.check(value);
  EXPECT_EQ(diff.mismatches(), 0u);
}

TEST(FormatDouble, MatchesReferenceAroundTheIntegerCutoff) {
  // Integers switch from "%.0f" to %g at 1e15; check the integers and the
  // halves either side of the cutoff, and the neighbours of each.
  FormatDiff diff;
  for (double k = -2000; k <= 2000; ++k) {
    for (const double base :
         {1e15, -1e15, 1e15 - 0.5, 1e16, 9007199254740992.0}) {
      const double value = base + k;
      diff.check(value);
      diff.check(std::nextafter(value, 0.0));
      diff.check(std::nextafter(value, 2 * value));
    }
  }
  EXPECT_EQ(diff.mismatches(), 0u);
}

TEST(FormatDouble, MatchesReferenceOnTheIntegerPath) {
  // Integers below 1e15 print as the long long they convert to: zero of
  // both signs, small and negative integers, random ones up to the
  // cutoff, and the cutoff's neighbours, which are integers on both sides
  // of it (1e15 - 1, 1e15, 1e15 + 2).
  FormatDiff diff;
  for (double k = -5000; k <= 5000; ++k) diff.check(k);
  std::mt19937_64 rng(20261020);
  for (int i = 0; i < 100'000; ++i) {
    const auto whole = static_cast<double>(rng() % 1'000'000'000'000'000ULL);
    diff.check(whole);
    diff.check(-whole);
  }
  for (const double value : {1e15 - 1, 1e15, 1e15 + 2}) {
    for (const double signed_value : {value, -value}) {
      diff.check(signed_value);
      diff.check(std::nextafter(signed_value, 0.0));
      diff.check(std::nextafter(signed_value, 2 * signed_value));
    }
  }
  diff.check(-0.0);
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(-0.0), "-0");
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(-1.0), "-1");
  EXPECT_EQ(format_double(-4096.0), "-4096");
  EXPECT_EQ(format_double(1e15 - 1), "999999999999999");
  EXPECT_EQ(format_double(-(1e15 - 1)), "-999999999999999");
  EXPECT_EQ(format_double(1e15), "1e+15");
  EXPECT_EQ(format_double(1e15 + 2), "1000000000000002");
}

TEST(FormatDouble, MatchesReferenceOnGridStyleDecimals) {
  // The values sweep axes and model outputs are made of: short decimals,
  // their reciprocals and products, across magnitudes.
  FormatDiff diff;
  for (int k = 1; k <= 20000; ++k) {
    for (const double scale : {1e-9, 1e-3, 0.01, 0.1, 1.0, 1e3, 1e9, 1e12}) {
      diff.check(k * scale);
      diff.check(k / 100.0 * scale);
      diff.check(scale / k);
    }
  }
  EXPECT_EQ(diff.mismatches(), 0u);
}

TEST(FormatDouble, MatchesReferenceAtTheLayoutSwitchPoints) {
  // "%.{n}g" prints n significant digits in fixed notation from decimal
  // exponent -4 up to n - 1 and in scientific notation outside that
  // range.  Each value below sits on one side of a switch point, or is a
  // power of two or limit where the layout is easy to get wrong; each is
  // checked with both signs and both neighbours.
  std::vector<double> values = {
      0.0001234, 1.234e-05, 0.0001, 1e-05, 0.00012, 9.5e-05,
      0.00099999, 9.9999e-05, 1234567890123456.0, 12345678901234560.0,
      1.5e16, 1e15 + 0.5, 1.2e15, 1.25e16,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::max(), 4.9406564584124654e-320,
      2.2250738585072e-310};
  // Halves between 2^51 and 2^52: 16 integer digits and ".5".
  for (double k = 0; k < 2000; ++k) {
    values.push_back(std::ldexp(1.0, 51) + k + 0.5);
    values.push_back(std::ldexp(1.0, 52) - k - 0.5);
  }
  // Exact ties: at a spacing of 1/8 or 1/4, x.25 and x.75 sit halfway
  // between two one-decimal strings that both round-trip.
  for (double k = 0; k < 2000; ++k) {
    for (const int e : {49, 50}) {
      values.push_back(std::ldexp(1.0, e) + k + 0.25);
      values.push_back(std::ldexp(1.0, e) + k + 0.75);
    }
  }
  // Subnormals: small multiples of the smallest, and the largest ones.
  for (double k = 1; k <= 2000; ++k) {
    values.push_back(k * std::numeric_limits<double>::denorm_min());
    values.push_back(std::numeric_limits<double>::min() -
                     k * std::numeric_limits<double>::denorm_min());
  }
  FormatDiff diff;
  for (const double value : values) {
    for (const double signed_value : {value, -value}) {
      diff.check(signed_value);
      diff.check(std::nextafter(signed_value, 0.0));
      diff.check(std::nextafter(signed_value, 2 * signed_value));
    }
  }
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked();
  EXPECT_EQ(format_double(0.0001234), "0.0001234");
  EXPECT_EQ(format_double(1.234e-05), "1.234e-05");
  EXPECT_EQ(format_double(1234567890123456.0), "1234567890123456");
  EXPECT_EQ(format_double(12345678901234560.0), "1.234567890123456e+16");
  EXPECT_EQ(format_double(-1.5e16), "-1.5e+16");
  EXPECT_EQ(format_double(std::numeric_limits<double>::denorm_min()), "5e-324");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("abc", "", "x"), "abc");
}

TEST(Strings, XmlEscape) {
  EXPECT_EQ(xml_escape("a<b & c>\"d'"), "a&lt;b &amp; c&gt;&quot;d&apos;");
  EXPECT_EQ(xml_escape("plain"), "plain");
}

}  // namespace
}  // namespace wfr::util

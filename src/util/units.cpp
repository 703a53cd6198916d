#include "util/units.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace wfr::util {

namespace {

struct Prefix {
  double factor;
  const char* symbol;
};

constexpr std::array<Prefix, 7> kPrefixes{{
    {kExa, "E"},
    {kPeta, "P"},
    {kTera, "T"},
    {kGiga, "G"},
    {kMega, "M"},
    {kKilo, "k"},
    {1.0, ""},
}};

// Every power of ten from 1e0 to 1e22 is exactly a double.
constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                             1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                             1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

// "%.3g" of `value` (see units.hpp), a space, then `prefix` and `unit`.
void append_with_unit(std::string& out, double value, std::string_view prefix,
                      std::string_view unit) {
  append_g3(out, value);
  out += ' ';
  out += prefix;
  out += unit;
}

// Formats `value` scaled by the largest prefix whose factor it reaches,
// trimming trailing zeros ("5 TB" rather than "5.00 TB").
void append_with_prefix(std::string& out, double value,
                        std::string_view unit) {
  if (value == 0.0) return append_with_unit(out, 0.0, "", unit);
  const double mag = std::fabs(value);
  const Prefix* chosen = &kPrefixes.back();
  for (const Prefix& p : kPrefixes) {
    if (mag >= p.factor) {
      chosen = &p;
      break;
    }
  }
  append_with_unit(out, value / chosen->factor, chosen->symbol, unit);
}

template <void (*kAppend)(std::string&, double)>
std::string formatted(double value) {
  std::string out;
  kAppend(out, value);
  return out;
}

double prefix_factor(char c) {
  switch (c) {
    case 'k': case 'K': return kKilo;
    case 'm': case 'M': return kMega;
    case 'g': case 'G': return kGiga;
    case 't': case 'T': return kTera;
    case 'p': case 'P': return kPeta;
    case 'e': case 'E': return kExa;
    default: return 0.0;
  }
}

// Splits "5.6TB/s" into the numeric part and the unit tail.
void split_number_and_unit(std::string_view text, double* number,
                           std::string* unit) {
  const std::string s = trim(text);
  require(!s.empty(), "empty quantity string");
  std::size_t pos = 0;
  // Accept a leading sign, digits, decimal point, and exponent.
  const char* begin = s.c_str();
  char* end = nullptr;
  *number = std::strtod(begin, &end);
  if (end == begin) throw ParseError("no number in quantity: '" + s + "'");
  if (!std::isfinite(*number))
    throw ParseError("non-finite number in quantity: '" + s + "'");
  pos = static_cast<std::size_t>(end - begin);
  *unit = trim(s.substr(pos));
}

}  // namespace

void append_g3(std::string& out, double value) {
  const double mag = std::fabs(value);
  // NaN fails both comparisons.
  if (mag >= 1e-4 && mag < 1e22) {
    // The decimal exponent X: 10^X <= mag < 10^(X+1).  Exact from 1 up;
    // below 1, where mag * 10^-X rounds, X may come out one too high, but
    // only within an ulp of 10^X, where t below is 100 (X and X - 1 then
    // print the same digits) or just under it.  mag >= 1e-4 stops the
    // scan at -4.
    int exponent = 0;
    if (mag >= 1.0) {
      while (kPow10[exponent + 1] <= mag) ++exponent;
    } else {
      while (mag * kPow10[-exponent] < 1.0) --exponent;
    }
    // t = mag * 10^(2 - X) in one rounding, by an exact power of ten, so
    // it is within 2^-53 * 1000 of the true product, and unless it is
    // within 1e-9 of a tie its nearest integer is the correctly rounded
    // three digits.  Near-ties, and t outside [100, 1000), take to_chars.
    const double t = exponent <= 2 ? mag * kPow10[2 - exponent]
                                   : mag / kPow10[exponent - 2];
    if (t >= 100.0 && t < 1000.0 &&
        std::fabs(t - std::floor(t) - 0.5) > 1e-9) {
      int rounded = static_cast<int>(t + 0.5);
      if (rounded == 1000) {
        rounded = 100;
        ++exponent;
      }
      const char digits[3] = {static_cast<char>('0' + rounded / 100),
                              static_cast<char>('0' + rounded / 10 % 10),
                              static_cast<char>('0' + rounded % 10)};
      // Significant digits left once trailing zeros are dropped.
      const int kept = digits[2] != '0' ? 3 : digits[1] != '0' ? 2 : 1;
      char buf[16];
      char* p = buf;
      if (value < 0.0) *p++ = '-';
      if (exponent >= 3) {  // X < -4 cannot reach here
        *p++ = digits[0];
        if (kept > 1) {
          *p++ = '.';
          p = std::copy(digits + 1, digits + kept, p);
        }
        *p++ = 'e';
        *p++ = '+';
        *p++ = static_cast<char>('0' + exponent / 10);
        *p++ = static_cast<char>('0' + exponent % 10);
      } else if (exponent >= 0) {
        p = std::copy(digits, digits + exponent + 1, p);
        if (kept > exponent + 1) {
          *p++ = '.';
          p = std::copy(digits + exponent + 1, digits + kept, p);
        }
      } else {
        p = std::copy_n("0.000", 1 - exponent, p);
        p = std::copy(digits, digits + kept, p);
      }
      out.append(buf, p);
      return;
    }
  }
  char buf[16];  // fits the longest %.3g string, "-1.23e-308"
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                std::chars_format::general, 3)
                      .ptr);
}

void append_bytes(std::string& out, double bytes) {
  append_with_prefix(out, bytes, "B");
}

void append_rate(std::string& out, double bytes_per_second) {
  append_with_prefix(out, bytes_per_second, "B/s");
}

void append_flops(std::string& out, double flops) {
  append_with_prefix(out, flops, "FLOP");
}

void append_flops_rate(std::string& out, double flops_per_second) {
  append_with_prefix(out, flops_per_second, "FLOP/s");
}

void append_seconds(std::string& out, double seconds) {
  const double mag = std::fabs(seconds);
  if (mag == 0.0) {
    out += "0 s";
  } else if (mag < 1e-3) {
    append_with_unit(out, seconds * 1e6, "", "us");
  } else if (mag < 1.0) {
    append_with_unit(out, seconds * 1e3, "", "ms");
  } else if (mag < 120.0) {
    append_with_unit(out, seconds, "", "s");
  } else if (mag < 2.0 * kHour) {
    append_with_unit(out, seconds / kMinute, "", "min");
  } else {
    append_with_unit(out, seconds / kHour, "", "h");
  }
}

std::string format_bytes(double bytes) {
  return formatted<append_bytes>(bytes);
}

std::string format_rate(double bytes_per_second) {
  return formatted<append_rate>(bytes_per_second);
}

std::string format_flops(double flops) {
  return formatted<append_flops>(flops);
}

std::string format_flops_rate(double flops_per_second) {
  return formatted<append_flops_rate>(flops_per_second);
}

std::string format_seconds(double seconds) {
  return formatted<append_seconds>(seconds);
}

namespace {

// `number` in base units, rejecting a product that overflowed, e.g.
// "1e300 EB".
double scaled(double number, double factor, std::string_view text) {
  const double value = number * factor;
  if (!std::isfinite(value))
    throw ParseError("quantity out of range: '" + std::string(text) + "'");
  return value;
}

// Shared implementation: parses "<number> [prefix]<base>[/s]" where `base`
// is a recognized unit word for the quantity kind.
double parse_quantity(std::string_view text, bool expect_rate,
                      std::initializer_list<std::string_view> base_words,
                      std::string_view what) {
  double number = 0.0;
  std::string unit;
  split_number_and_unit(text, &number, &unit);
  if (unit.empty()) {
    if (expect_rate)
      throw ParseError("rate requires a unit (e.g. 'GB/s'): '" +
                       std::string(text) + "'");
    return number;  // bare number: base units
  }
  std::string u = unit;
  bool has_per_second = false;
  const std::string lower = to_lower(u);
  if (ends_with(lower, "/s")) {
    has_per_second = true;
    u = u.substr(0, u.size() - 2);
  } else if (ends_with(lower, "ps") && !ends_with(lower, "flops") &&
             lower != "ps") {
    // e.g. "GBps"
    has_per_second = true;
    u = u.substr(0, u.size() - 2);
  }
  if (expect_rate && !has_per_second)
    throw ParseError("expected a rate (unit ending in /s) for " +
                     std::string(what) + ": '" + std::string(text) + "'");
  if (!expect_rate && has_per_second)
    throw ParseError("expected a volume, got a rate for " + std::string(what) +
                     ": '" + std::string(text) + "'");

  u = trim(u);
  require(!u.empty(), "missing unit word in '%.*s'",
          static_cast<int>(text.size()), text.data());

  // Try to match the unit word with an optional SI prefix character.
  for (std::string_view base : base_words) {
    const std::string lu = to_lower(u);
    const std::string lb = to_lower(std::string(base));
    if (lu == lb) return number;  // no prefix
    if (lu.size() == lb.size() + 1 && lu.substr(1) == lb) {
      const double f = prefix_factor(u[0]);
      if (f > 0.0) return scaled(number, f, text);
    }
  }
  throw ParseError("unrecognized unit '" + unit + "' in '" +
                   std::string(text) + "'");
}

}  // namespace

double parse_bytes(std::string_view text) {
  return parse_quantity(text, /*expect_rate=*/false, {"B", "byte", "bytes"},
                        "bytes");
}

double parse_rate(std::string_view text) {
  return parse_quantity(text, /*expect_rate=*/true, {"B", "byte", "bytes"},
                        "rate");
}

double parse_flops(std::string_view text) {
  return parse_quantity(text, /*expect_rate=*/false,
                        {"FLOP", "FLOPs", "FLOPS", "flop", "flops"}, "flops");
}

double parse_seconds(std::string_view text) {
  double number = 0.0;
  std::string unit;
  split_number_and_unit(text, &number, &unit);
  if (unit.empty()) return number;
  const std::string u = to_lower(unit);
  if (u == "s" || u == "sec" || u == "secs" || u == "second" || u == "seconds")
    return number;
  if (u == "ms") return number * 1e-3;
  if (u == "us") return number * 1e-6;
  if (u == "min" || u == "mins" || u == "minute" || u == "minutes")
    return scaled(number, kMinute, text);
  if (u == "h" || u == "hr" || u == "hour" || u == "hours")
    return scaled(number, kHour, text);
  throw ParseError("unrecognized time unit '" + unit + "' in '" +
                   std::string(text) + "'");
}

}  // namespace wfr::util

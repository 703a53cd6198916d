#include "util/units.hpp"

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

// "%.3g" of `value` through std::to_chars (see units.hpp), a space, then
// `prefix` and `unit`.
std::string with_unit(double value, std::string_view prefix,
                      std::string_view unit) {
  char buf[16];  // fits the longest %.3g string, "-1.23e-308"
  char* const end =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general,
                    3)
          .ptr;
  std::string out(buf, end);
  out += ' ';
  out += prefix;
  out += unit;
  return out;
}

// Formats `value` scaled by the largest prefix whose factor it reaches,
// trimming trailing zeros ("5 TB" rather than "5.00 TB").
std::string format_with_prefix(double value, std::string_view unit) {
  if (value == 0.0) return with_unit(0.0, "", unit);
  const double mag = std::fabs(value);
  const Prefix* chosen = &kPrefixes.back();
  for (const Prefix& p : kPrefixes) {
    if (mag >= p.factor) {
      chosen = &p;
      break;
    }
  }
  return with_unit(value / chosen->factor, chosen->symbol, unit);
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

std::string format_bytes(double bytes) { return format_with_prefix(bytes, "B"); }

std::string format_rate(double bytes_per_second) {
  return format_with_prefix(bytes_per_second, "B/s");
}

std::string format_flops(double flops) {
  return format_with_prefix(flops, "FLOP");
}

std::string format_flops_rate(double flops_per_second) {
  return format_with_prefix(flops_per_second, "FLOP/s");
}

std::string format_seconds(double seconds) {
  const double mag = std::fabs(seconds);
  if (mag == 0.0) return "0 s";
  if (mag < 1e-3) return with_unit(seconds * 1e6, "", "us");
  if (mag < 1.0) return with_unit(seconds * 1e3, "", "ms");
  if (mag < 120.0) return with_unit(seconds, "", "s");
  if (mag < 2.0 * kHour) return with_unit(seconds / kMinute, "", "min");
  return with_unit(seconds / kHour, "", "h");
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

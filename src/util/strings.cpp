#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace wfr::util {

namespace {
bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}
}  // namespace

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string pad_right(std::string_view s, std::size_t w) {
  std::string out(s);
  if (out.size() < w) out.append(w - out.size(), ' ');
  return out;
}

std::string pad_left(std::string_view s, std::size_t w) {
  std::string out(s);
  if (out.size() < w) out.insert(out.begin(), w - out.size(), ' ');
  return out;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::string out = vformat(fmt, args);
  va_end(args);
  return out;
}

std::string vformat(const char* fmt, va_list args) {
  va_list measure;
  va_copy(measure, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, measure);
  va_end(measure);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args);
    out.resize(static_cast<std::size_t>(needed));
  }
  return out;
}

void append_double(std::string& out, double value) {
  // Large enough for general at precision 17 (17 significand digits +
  // point + "e-308" + sign, or "0.0001" + 17 digits + sign).
  char buf[40];
  char* const end = buf + sizeof(buf);
  // An integer below 1e15 prints as the long long it converts to exactly,
  // the bytes of "%.0f"; -0.0 converts to 0 but prints "-0".  NaN and the
  // infinities fail the range test.
  if (std::fabs(value) < 1e15) {
    const auto whole = static_cast<long long>(value);
    if (static_cast<double>(whole) == value) {
      if (whole == 0 && std::signbit(value))
        out += "-0";
      else
        out.append(buf, std::to_chars(buf, end, whole).ptr);
      return;
    }
  }
  // The shortest round-tripping digit string sets the lowest precision
  // worth trying: a %g string at fewer digits cannot round-trip.
  char* const shortest_end =
      std::to_chars(buf, end, value, std::chars_format::scientific).ptr;
  int binary_exponent = 0;
  if (std::isfinite(value) &&
      std::fabs(std::frexp(value, &binary_exponent)) != 0.5) {
    // Away from a power of two the rounding interval is symmetric, so the
    // shortest digits d[.ddd]e±X (n of them) are also the correctly
    // rounded n-digit ones, which "%.{n}g" prints: as they stand when
    // X < -4 or X >= n, else in fixed notation with no trailing zero.
    const char* const digits = buf + (buf[0] == '-');
    const char* const exp_mark = static_cast<const char*>(std::memchr(
        digits, 'e', static_cast<std::size_t>(shortest_end - digits)));
    const int mantissa_chars = static_cast<int>(exp_mark - digits);
    const int n = mantissa_chars == 1 ? 1 : mantissa_chars - 1;
    int exponent = 0;
    std::from_chars(exp_mark + 1 + (exp_mark[1] == '+'), shortest_end,
                    exponent);
    if (exponent < -4 || exponent >= n) {
      out.append(buf, shortest_end);
      return;
    }
    // Fixed: "0.000" up to the first digit when X < 0, else X + 1
    // integer digits; the rest follow the point.
    char fixed[32];
    char* p = fixed;
    if (digits != buf) *p++ = '-';
    if (exponent < 0) p = std::copy_n("0.000", 1 - exponent, p);
    *p++ = digits[0];
    const char* rest = digits + 2;
    if (exponent > 0) {
      p = std::copy_n(rest, exponent, p);
      rest += exponent;
    }
    if (rest < exp_mark) {
      if (exponent >= 0) *p++ = '.';
      p = std::copy(rest, exp_mark, p);
    }
    out.append(fixed, p);
    return;
  }
  // At a power of two the lower neighbour is half as far as the upper one,
  // so the correctly rounded string at the shortest length may miss:
  // check each to_chars(general, p) — the standard's "%.{p}g" — with
  // from_chars, raising p until it round-trips.  "inf" has no digits and
  // round-trips at once; NaN never compares equal and ends at precision
  // 17, as printf's "nan" or "-nan".
  int precision = 0;
  for (const char* p = buf; p != shortest_end && *p != 'e'; ++p)
    precision += *p >= '0' && *p <= '9';
  for (;; ++precision) {
    char* const last =
        std::to_chars(buf, end, value, std::chars_format::general, precision)
            .ptr;
    double parsed = 0.0;
    std::from_chars(buf, last, parsed);
    if (parsed == value || precision == 17) {
      out.append(buf, last);
      return;
    }
  }
}

std::string format_double(double value) {
  std::string out;
  append_double(out, value);
  return out;
}

std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out += s.substr(pos);
      break;
    }
    out += s.substr(pos, hit - pos);
    out += to;
    pos = hit + from.size();
  }
  return out;
}

std::string xml_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace wfr::util

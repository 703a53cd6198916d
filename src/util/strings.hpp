#pragma once
// Small string utilities shared across the library.

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace wfr::util {

/// Returns `s` with leading and trailing ASCII whitespace removed.
std::string trim(std::string_view s);

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// ASCII lower-cases `s`.
std::string to_lower(std::string_view s);

/// True when `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// True when `s` ends with `suffix`.
bool ends_with(std::string_view s, std::string_view suffix);

/// Joins `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Pads `s` with spaces on the right (left-aligned) to width `w`.
std::string pad_right(std::string_view s, std::size_t w);

/// Pads `s` with spaces on the left (right-aligned) to width `w`.
std::string pad_left(std::string_view s, std::size_t w);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// format() over an argument list, which it consumes.
std::string vformat(const char* fmt, va_list args)
    __attribute__((format(printf, 1, 0)));

/// Formats a double with the fewest digits that round-trip back to the same
/// value.  The output contract: integers below 1e15 in magnitude print as
/// printf's "%.0f" ("42", not "42.0000..."); non-finite values print as
/// "inf", "-inf", "nan" or "-nan"; everything else prints as printf's
/// "%.{p}g" at the lowest precision p whose parse recovers the input
/// bit-for-bit ("0.1", not "0.10000000000000001").
///
/// The algorithm runs on <charconv>, with no printf or strtod.  An integer
/// below 1e15 (a value equal to its long long conversion) prints that long
/// long through the integer std::to_chars, -0.0 as "-0".  Every other
/// value makes one conversion: the shortest std::to_chars scientific form,
/// n digits with decimal exponent X.  No %g string with fewer digits can
/// round-trip, and away from a power of two those n digits are also the
/// correctly rounded ones, so they are laid out as "%.{n}g" prints them:
/// the scientific form itself when X < -4 or X >= n, else fixed notation
/// (the point inside the digits, or a "0.000" prefix).  Non-finite values
/// and exact powers of two, whose lower neighbour is half as far as the
/// upper one so the correctly rounded string at the shortest length may
/// miss, take the loop: to_chars(general, p) — the standard's "%.{p}g" —
/// checked with from_chars from p = n up until it round-trips.  The bytes
/// equal those of a printf/strtod loop from p = 1, which
/// tests/util/test_strings.cpp keeps as the reference.
///
/// This is the single number formatter shared by JSON serialization, the
/// sweep NDJSON rows, the Prometheus exposition in obs, and the
/// differential-check repro dumps, so the same value always serializes to
/// the same bytes everywhere.
std::string format_double(double value);

/// format_double appended to `out` without a temporary string — the hot
/// NDJSON row writers call this once per numeric field.
void append_double(std::string& out, double value);

/// Replaces every occurrence of `from` in `s` with `to`.
std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to);

/// Escapes the XML special characters &, <, >, ", '.
std::string xml_escape(std::string_view s);

}  // namespace wfr::util

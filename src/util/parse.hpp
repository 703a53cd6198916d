#pragma once
// Strict numeric parsing for command-line flags and query parameters.
//
// std::stol-style prefix parsing silently accepts trailing garbage
// ("--port 80x" becomes port 80); these helpers require the whole token
// to be consumed and report the flag name and offending text instead.
// Shared by the wfr CLI and the serve layer's query-parameter handling.

#include <cstdint>
#include <string>

namespace wfr::util {

/// Throws InvalidArgument("bad value for --<flag>: '<text>'").
[[noreturn]] void bad_flag_value(const std::string& flag,
                                 const std::string& text);

/// Parses a decimal integer, rejecting empty, partially-consumed, or
/// out-of-range text.  Leading/trailing ASCII whitespace is tolerated.
long parse_long_flag(const std::string& flag, const std::string& text);

/// parse_long_flag restricted to [min, max] (inclusive).
long parse_long_flag_in(const std::string& flag, const std::string& text,
                        long min, long max);

/// Parses a non-negative decimal integer into uint64 with the same
/// full-consumption rules.
std::uint64_t parse_u64_flag(const std::string& flag,
                             const std::string& text);

/// Parses a floating-point value with the same full-consumption rules,
/// rejecting "inf", "nan" and their spellings: every caller needs a finite
/// number, and a non-finite one would reach JSON output as a bare token.
double parse_double_flag(const std::string& flag, const std::string& text);

}  // namespace wfr::util

#pragma once
// Unit constants, formatting, and parsing for the quantities the Workflow
// Roofline model traffics in: bytes, flops, bandwidths, and times.
//
// Conventions used throughout the library (matching the paper):
//   * Volumes are stored as raw doubles in BYTES or FLOPS.
//   * Rates are stored as raw doubles in BYTES/SECOND or FLOPS/SECOND.
//   * Times are stored as raw doubles in SECONDS.
//   * Decimal (SI) prefixes are used: 1 GB = 1e9 bytes, matching vendor
//     peak-bandwidth sheets (e.g. "PCIe 4.0 at 25 GB/s/direction").

#include <string>
#include <string_view>

namespace wfr::util {

// --- SI prefix constants -------------------------------------------------
inline constexpr double kKilo = 1e3;
inline constexpr double kMega = 1e6;
inline constexpr double kGiga = 1e9;
inline constexpr double kTera = 1e12;
inline constexpr double kPeta = 1e15;
inline constexpr double kExa = 1e18;

// Convenience volume constants.
inline constexpr double kKB = kKilo;
inline constexpr double kMB = kMega;
inline constexpr double kGB = kGiga;
inline constexpr double kTB = kTera;
inline constexpr double kPB = kPeta;

// Convenience rate constants (bytes/second).
inline constexpr double kGBs = kGiga;
inline constexpr double kTBs = kTera;

// Convenience compute constants (flops and flops/second).
inline constexpr double kGFLOP = kGiga;
inline constexpr double kTFLOP = kTera;
inline constexpr double kPFLOP = kPeta;
inline constexpr double kGFLOPS = kGiga;
inline constexpr double kTFLOPS = kTera;
inline constexpr double kPFLOPS = kPeta;

// Time constants (seconds).
inline constexpr double kMinute = 60.0;
inline constexpr double kHour = 3600.0;

// --- Formatting ----------------------------------------------------------
//
// Each formatter prints printf's "%.3g" of the scaled value, then a space,
// the SI prefix (or time unit) and the unit text; no printf runs, and
// tests/util/test_units.cpp checks the bytes against an snprintf
// reference.  The prefix is picked before rounding, so a value just under
// a threshold carries into the next decade: "1e+03 GB", "120 min".
// Each format_* function has an append_* form that appends the same bytes
// to a string, for callers building a longer text (core::ceiling_label).

/// Appends printf's "%.3g" of `value`: three significant digits, trailing
/// zeros dropped, scientific notation ("1.5e+04") for a decimal exponent
/// below -4 or above 2.  A magnitude in [1e-4, 1e22) takes an exact fast
/// path: its decimal exponent X from a table of the exact powers of ten,
/// t = |value| * 10^(2-X) in one rounding, then t's nearest integer laid
/// out as "%.3g" does, carrying 999.5 to "1e+03".  A t within 1e-9 of a
/// rounding tie, or outside [100, 1000), and every other input (0,
/// subnormals, magnitudes outside the range, inf, NaN) take
/// std::to_chars(general, 3), which the standard specifies as "%.3g" in
/// the C locale.
void append_g3(std::string& out, double value);

/// Formats a byte volume with an auto-selected SI prefix, e.g. "5 TB".
std::string format_bytes(double bytes);

/// Formats a byte rate with an auto-selected SI prefix, e.g. "5.6 TB/s".
std::string format_rate(double bytes_per_second);

/// Formats a flop count, e.g. "1164 PFLOP".
std::string format_flops(double flops);

/// Formats a flop rate, e.g. "38.8 TFLOP/s".
std::string format_flops_rate(double flops_per_second);

/// Formats a duration: "85 ms", "17.2 s", "12.5 min", "3.4 h".
std::string format_seconds(double seconds);

void append_bytes(std::string& out, double bytes);
void append_rate(std::string& out, double bytes_per_second);
void append_flops(std::string& out, double flops);
void append_flops_rate(std::string& out, double flops_per_second);
void append_seconds(std::string& out, double seconds);

// --- Parsing -------------------------------------------------------------

/// Parses a byte volume such as "5 TB", "45MB", "1.5e3 GB", or "1024"
/// (bare numbers are bytes).  Throws ParseError on malformed input.
double parse_bytes(std::string_view text);

/// Parses a byte rate such as "100 GB/s" or "5.6TB/s".
/// Throws ParseError on malformed input.
double parse_rate(std::string_view text);

/// Parses a flop count such as "1164 PFLOP" / "100 GFLOPs".
double parse_flops(std::string_view text);

/// Parses a duration such as "600 s", "10 min", "1.5 h", "250 ms".
double parse_seconds(std::string_view text);

}  // namespace wfr::util

#pragma once
// Minimal leveled logging.  Off by default above kWarn; tests and the CLI
// can raise verbosity, and the WFR_LOG_LEVEL environment variable
// (debug|info|warn|error|off, case-insensitive) sets the startup level.
// Each message is formatted into one line — "[wfr LEVEL +12.345s] text" —
// and written to stderr with a single write under a mutex, so concurrent
// emitters never interleave.  Intended for coarse progress and
// diagnostics, not per-event simulator chatter.

#include <optional>
#include <string>
#include <string_view>

namespace wfr::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global minimum level that is emitted (default kWarn, or
/// WFR_LOG_LEVEL when set in the environment).
void set_log_level(LogLevel level);

/// Returns the current global log level.
LogLevel log_level();

/// Parses a level name ("debug", "INFO", "warn", "error", "off", or a
/// digit 0-4).  Returns nullopt for anything else.
std::optional<LogLevel> parse_log_level(std::string_view text);

/// Short upper-case name of `level` ("DEBUG" ... "OFF").
const char* log_level_name(LogLevel level);

/// Seconds elapsed on the monotonic clock since logging was first used —
/// the timestamp that appears in the message prefix.
double log_uptime_seconds();

/// Emits `message` to stderr when `level` >= the global level.  The full
/// line (prefix + message + newline) goes out in one write.
void log(LogLevel level, const std::string& message);

void log_debug(const std::string& message);
void log_warn(const std::string& message);

}  // namespace wfr::util

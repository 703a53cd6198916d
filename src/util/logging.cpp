#include "util/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace wfr::util {

namespace {

using Clock = std::chrono::steady_clock;

LogLevel startup_level() {
  const char* env = std::getenv("WFR_LOG_LEVEL");
  if (env != nullptr) {
    if (std::optional<LogLevel> parsed = parse_log_level(env)) return *parsed;
    std::fprintf(stderr, "[wfr WARN +0.000s] ignoring unknown WFR_LOG_LEVEL '%s'\n",
                 env);
  }
  return LogLevel::kWarn;
}

std::atomic<LogLevel> g_level{startup_level()};
std::mutex g_emit_mutex;

Clock::time_point log_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

LogLevel log_level() { return g_level.load(); }

std::optional<LogLevel> parse_log_level(std::string_view text) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) lower.push_back(ascii_lower(c));
  if (lower == "debug" || lower == "0") return LogLevel::kDebug;
  if (lower == "info" || lower == "1") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning" || lower == "2")
    return LogLevel::kWarn;
  if (lower == "error" || lower == "3") return LogLevel::kError;
  if (lower == "off" || lower == "none" || lower == "4") return LogLevel::kOff;
  return std::nullopt;
}

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

double log_uptime_seconds() {
  return std::chrono::duration<double>(Clock::now() - log_epoch()).count();
}

void log(LogLevel level, const std::string& message) {
  if (level < g_level.load() || level == LogLevel::kOff) return;
  // Format the whole line first so the emit below is one fwrite; the mutex
  // keeps lines from concurrent threads whole even on platforms where
  // large stderr writes are not atomic.
  char prefix[64];
  const int n = std::snprintf(prefix, sizeof(prefix), "[wfr %s +%.3fs] ",
                              log_level_name(level), log_uptime_seconds());
  std::string line;
  line.reserve(static_cast<std::size_t>(n) + message.size() + 1);
  line.append(prefix, static_cast<std::size_t>(n));
  line += message;
  line += '\n';
  std::lock_guard<std::mutex> guard(g_emit_mutex);
  std::fwrite(line.data(), 1, line.size(), stderr);
}

void log_debug(const std::string& message) { log(LogLevel::kDebug, message); }
void log_warn(const std::string& message) { log(LogLevel::kWarn, message); }

}  // namespace wfr::util

#include "util/parse.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace wfr::util {

void bad_flag_value(const std::string& flag, const std::string& text) {
  throw InvalidArgument("bad value for --" + flag + ": '" + text + "'");
}

long parse_long_flag(const std::string& flag, const std::string& text) {
  const std::string trimmed = trim(text);
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(trimmed.c_str(), &end, 10);
  if (trimmed.empty() || end == nullptr || *end != '\0' || errno == ERANGE)
    bad_flag_value(flag, text);
  return value;
}

long parse_long_flag_in(const std::string& flag, const std::string& text,
                        long min, long max) {
  const long value = parse_long_flag(flag, text);
  if (value < min || value > max) bad_flag_value(flag, text);
  return value;
}

std::uint64_t parse_u64_flag(const std::string& flag,
                             const std::string& text) {
  const std::string trimmed = trim(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(trimmed.c_str(), &end, 10);
  if (trimmed.empty() || trimmed.front() == '-' || end == nullptr ||
      *end != '\0' || errno == ERANGE)
    bad_flag_value(flag, text);
  return static_cast<std::uint64_t>(value);
}

double parse_double_flag(const std::string& flag, const std::string& text) {
  const std::string trimmed = trim(text);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(trimmed.c_str(), &end);
  if (trimmed.empty() || end == nullptr || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value))
    bad_flag_value(flag, text);
  return value;
}

}  // namespace wfr::util

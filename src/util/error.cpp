#include "util/error.hpp"

#include <cstdarg>

#include "util/strings.hpp"

namespace wfr::util {

void require(bool condition, const char* fmt, ...) {
  if (condition) return;
  va_list args;
  va_start(args, fmt);
  std::string message = vformat(fmt, args);
  va_end(args);
  throw InvalidArgument(message);
}

void require(bool condition, const std::string& message) {
  if (!condition) throw InvalidArgument(message);
}

void ensure(bool condition, const char* fmt, ...) {
  if (condition) return;
  va_list args;
  va_start(args, fmt);
  std::string message = vformat(fmt, args);
  va_end(args);
  throw InternalError(message);
}

}  // namespace wfr::util

#pragma once
// Error handling for the workflow-roofline library.
//
// The library throws exceptions derived from wfr::util::Error for
// unrecoverable misuse (invalid specifications, parse failures, broken
// invariants detected at API boundaries).  Checks stay on in every build,
// including the per-event and per-task ones in the simulator: a check that
// passes costs a compare and a call, and its message is formatted only when
// it fails.  Pass require/ensure a printf format and its arguments rather
// than a message built up front (scripts/check_lazy_messages.py rejects the
// latter in src/).

#include <stdexcept>
#include <string>

namespace wfr::util {

/// Base class for all exceptions thrown by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller supplied an argument that violates a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Text (JSON, units, workflow descriptions) failed to parse.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

/// A named entity (task, resource, field) was not found.
class NotFound : public Error {
 public:
  explicit NotFound(const std::string& what) : Error(what) {}
};

/// An internal invariant was violated; indicates a library bug.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

/// Throws InvalidArgument when `condition` is false, with the message
/// printf-formatted from `fmt` and the arguments that follow.  Nothing is
/// formatted when the check passes.  Data goes in the arguments, never in
/// `fmt`: `require(ok, "task '%s'", name.c_str())`.
void require(bool condition, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Throws InvalidArgument with `message` when `condition` is false.  For a
/// message that already exists as a string; building one just to pass it
/// here costs its allocation on every passing call.
void require(bool condition, const std::string& message);

/// Throws InternalError when `condition` is false; the message is formatted
/// as for require.
void ensure(bool condition, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace wfr::util

#include "util/logging.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wfr::util {
namespace {

// Restores the global level after each test.
class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = log_level(); }
  void TearDown() override { set_log_level(saved_); }
  LogLevel saved_ = LogLevel::kWarn;
};

TEST_F(LoggingTest, DefaultLevelIsWarn) {
  // The suite may have changed it; just verify set/get round-trips.
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
}

TEST_F(LoggingTest, SetLevelRoundTrips) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError, LogLevel::kOff}) {
    set_log_level(level);
    EXPECT_EQ(log_level(), level);
  }
}

TEST_F(LoggingTest, EmittingBelowThresholdIsSafe) {
  set_log_level(LogLevel::kError);
  // Suppressed messages must not crash or misbehave.
  EXPECT_NO_THROW(log_debug("suppressed"));
  EXPECT_NO_THROW(log_warn("suppressed"));
}

TEST_F(LoggingTest, OffSilencesEverything) {
  set_log_level(LogLevel::kOff);
  EXPECT_NO_THROW(log(LogLevel::kError, "also suppressed"));
  EXPECT_NO_THROW(log(LogLevel::kOff, "never emitted"));
}

TEST(LogLevelParsing, AcceptsNamesAnyCaseAndDigits) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("none"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("0"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("4"), LogLevel::kOff);
}

TEST(LogLevelParsing, RejectsUnknownNames) {
  EXPECT_EQ(parse_log_level(""), std::nullopt);
  EXPECT_EQ(parse_log_level("verbose"), std::nullopt);
  EXPECT_EQ(parse_log_level("5"), std::nullopt);
  EXPECT_EQ(parse_log_level(" info"), std::nullopt);
}

TEST(LogLevelParsing, NamesRoundTrip) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError, LogLevel::kOff}) {
    EXPECT_EQ(parse_log_level(log_level_name(level)), level);
  }
}

TEST(LogClock, UptimeIsMonotonic) {
  const double first = log_uptime_seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(log_uptime_seconds(), first);
}

TEST(ErrorHelpers, RequireThrowsInvalidArgument) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_NO_THROW(require(true, "x %d %s", 3, "y"));
  EXPECT_THROW(require(false, "nope"), InvalidArgument);
  try {
    require(false, "specific message");
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "specific message");
  }
  try {
    require(false, "x %d %s", 3, "y");
    ADD_FAILURE() << "require(false, ...) returned";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "x 3 y");
  }
}

TEST(ErrorHelpers, EnsureThrowsInternalError) {
  EXPECT_NO_THROW(ensure(true, "fine"));
  EXPECT_NO_THROW(ensure(true, "x %d %s", 3, "y"));
  EXPECT_THROW(ensure(false, "bug"), InternalError);
  try {
    ensure(false, "x %d %s", 3, "y");
    ADD_FAILURE() << "ensure(false, ...) returned";
  } catch (const InternalError& e) {
    EXPECT_STREQ(e.what(), "x 3 y");
  }
}

TEST(ErrorHierarchy, AllDeriveFromError) {
  EXPECT_THROW(throw ParseError("x"), Error);
  EXPECT_THROW(throw NotFound("x"), Error);
  EXPECT_THROW(throw InvalidArgument("x"), Error);
  EXPECT_THROW(throw InternalError("x"), Error);
  EXPECT_THROW(throw Error("x"), std::runtime_error);
}

}  // namespace
}  // namespace wfr::util

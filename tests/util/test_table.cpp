#include "util/table.hpp"

#include <gtest/gtest.h>

namespace wfr::util {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"series", "value"});
  t.add_row({"good day", "17"});
  t.add_row({"bad", "85"});
  const std::string s = t.str();
  EXPECT_NE(s.find("series    value"), std::string::npos);
  EXPECT_NE(s.find("good day  17"), std::string::npos);
  EXPECT_NE(s.find("bad       85"), std::string::npos);
}

TEST(TextTable, RightAlignment) {
  TextTable t({"name", "n"});
  t.set_align(1, Align::kRight);
  t.add_row({"a", "5"});
  t.add_row({"b", "128"});
  const std::string s = t.str();
  EXPECT_NE(s.find("a       5"), std::string::npos);
  EXPECT_NE(s.find("b     128"), std::string::npos);
}

TEST(TextTable, ShortRowsArePadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_EQ(t.str(), "a     b  c\n----  -  -\nonly\n");
}

TEST(TextTable, LongRowsExtendColumns) {
  TextTable t({"a"});
  t.add_row({"x", "extra"});
  const std::string s = t.str();
  EXPECT_NE(s.find("extra"), std::string::npos);
}

TEST(TextTable, RuleMatchesWidth) {
  TextTable t({"col"});
  t.add_row({"wide-value"});
  t.add_row({"v"});
  const std::string s = t.str();
  EXPECT_NE(s.find("----------"), std::string::npos);
}

TEST(TextTable, HeaderOnlyRenders) {
  TextTable t({"x", "y"});
  const std::string s = t.str();
  EXPECT_NE(s.find("x  y"), std::string::npos);
}

}  // namespace
}  // namespace wfr::util

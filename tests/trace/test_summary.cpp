#include "trace/summary.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wfr::trace {
namespace {

WorkflowTrace two_task_trace() {
  WorkflowTrace t("lcls");
  TaskRecord a;
  a.task = 0;
  a.name = "a0";
  a.start_seconds = 0.0;
  a.end_seconds = 1020.0;
  a.spans.push_back(Span{Phase::kExternalIn, 0.0, 1000.0});
  a.spans.push_back(Span{Phase::kWork, 1000.0, 1020.0});
  a.counters.external_in_bytes = 1e12;
  t.add_record(std::move(a));
  TaskRecord b;
  b.task = 1;
  b.name = "a1";
  b.start_seconds = 0.0;
  b.end_seconds = 1010.0;
  b.spans.push_back(Span{Phase::kExternalIn, 0.0, 1000.0});
  b.spans.push_back(Span{Phase::kWork, 1000.0, 1010.0});
  b.counters.external_in_bytes = 1e12;
  t.add_record(std::move(b));
  return t;
}

TEST(TimeBreakdown, TotalSumsComponents) {
  TimeBreakdown b;
  b.component("load").seconds = 10.0;
  b.component("work").seconds = 5.0;
  EXPECT_DOUBLE_EQ(b.total_seconds(), 15.0);
}

TEST(TimeBreakdown, ComponentLookupCreatesAndFinds) {
  TimeBreakdown b;
  b.component("x").seconds = 1.0;
  b.component("x").seconds += 2.0;
  EXPECT_DOUBLE_EQ(b.component("x").seconds, 3.0);
  EXPECT_EQ(b.components.size(), 1u);
  const TimeBreakdown& cb = b;
  EXPECT_THROW(cb.component("missing"), util::NotFound);
}

TEST(BreakdownByPhase, SumsAcrossTasks) {
  const TimeBreakdown b = breakdown_by_phase(two_task_trace());
  EXPECT_DOUBLE_EQ(b.component("external_in").seconds, 2000.0);
  EXPECT_DOUBLE_EQ(b.component("work").seconds, 30.0);
  EXPECT_EQ(b.scenario, "lcls");
}

TEST(BreakdownByPhase, WallClockUsesUnionOfIntervals) {
  const TimeBreakdown b =
      breakdown_by_phase(two_task_trace(), /*wall_clock=*/true);
  // Both tasks load concurrently over [0, 1000): union is 1000 s.
  EXPECT_DOUBLE_EQ(b.component("external_in").seconds, 1000.0);
  // Work phases overlap over [1000, 1010) and extend to 1020.
  EXPECT_DOUBLE_EQ(b.component("work").seconds, 20.0);
}

TEST(BreakdownByPhase, OmitsZeroPhases) {
  const TimeBreakdown b = breakdown_by_phase(two_task_trace());
  for (const BreakdownComponent& c : b.components)
    EXPECT_NE(c.label, "fs_write");
}

TEST(IoReport, ComputesAchievedBandwidth) {
  const IoReport r = io_report(two_task_trace());
  const IoChannelReport& ext = r.channels.at(0);
  EXPECT_EQ(ext.channel, "external_in");
  EXPECT_DOUBLE_EQ(ext.bytes, 2e12);
  EXPECT_DOUBLE_EQ(ext.busy_seconds, 1000.0);  // concurrent -> union
  EXPECT_DOUBLE_EQ(ext.achieved_bandwidth(), 2e9);
  EXPECT_EQ(ext.task_count, 2);
}

TEST(IoReport, IdleChannelHasZeroBandwidth) {
  const IoReport r = io_report(two_task_trace());
  const IoChannelReport& fs = r.channels.at(1);
  EXPECT_EQ(fs.channel, "fs_read");
  EXPECT_DOUBLE_EQ(fs.bytes, 0.0);
  EXPECT_DOUBLE_EQ(fs.achieved_bandwidth(), 0.0);
}

TEST(DescribeTrace, MentionsTasksAndMakespan) {
  const std::string s = describe_trace(two_task_trace());
  EXPECT_NE(s.find("lcls"), std::string::npos);
  EXPECT_NE(s.find("a0"), std::string::npos);
  EXPECT_NE(s.find("17 min"), std::string::npos);
}

}  // namespace
}  // namespace wfr::trace

#include "trace/timeline.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wfr::trace {
namespace {

TaskRecord make_record(const std::string& name, double start, double end,
                       int nodes = 1) {
  TaskRecord r;
  r.task = 0;
  r.name = name;
  r.nodes = nodes;
  r.start_seconds = start;
  r.end_seconds = end;
  return r;
}

TEST(PhaseNames, RoundTrip) {
  for (Phase p : {Phase::kOverhead, Phase::kExternalIn, Phase::kFsRead,
                  Phase::kWork, Phase::kFsWrite}) {
    EXPECT_EQ(parse_phase(phase_name(p)), p);
  }
  EXPECT_THROW(parse_phase("bogus"), util::ParseError);
}

TEST(TaskRecord, TimeInPhaseSumsSpans) {
  TaskRecord r = make_record("t", 0.0, 10.0);
  r.spans.push_back(Span{Phase::kWork, 0.0, 3.0});
  r.spans.push_back(Span{Phase::kFsRead, 3.0, 5.0});
  r.spans.push_back(Span{Phase::kWork, 5.0, 10.0});
  EXPECT_DOUBLE_EQ(r.time_in_phase(Phase::kWork), 8.0);
  EXPECT_DOUBLE_EQ(r.time_in_phase(Phase::kFsRead), 2.0);
  EXPECT_DOUBLE_EQ(r.time_in_phase(Phase::kOverhead), 0.0);
  EXPECT_DOUBLE_EQ(r.duration(), 10.0);
}

TEST(WorkflowTrace, MakespanSpansFirstToLast) {
  WorkflowTrace t("w");
  t.add_record(make_record("a", 2.0, 10.0));
  t.add_record(make_record("b", 0.0, 7.0));
  t.add_record(make_record("c", 9.0, 15.0));
  EXPECT_DOUBLE_EQ(t.makespan_seconds(), 15.0);
}

TEST(WorkflowTrace, EmptyMakespanIsZero) {
  EXPECT_DOUBLE_EQ(WorkflowTrace().makespan_seconds(), 0.0);
}

TEST(WorkflowTrace, RejectsInvertedRecords) {
  WorkflowTrace t;
  EXPECT_THROW(t.add_record(make_record("bad", 5.0, 1.0)),
               util::InvalidArgument);
  TaskRecord r = make_record("bad_span", 0.0, 1.0);
  r.spans.push_back(Span{Phase::kWork, 1.0, 0.5});
  EXPECT_THROW(t.add_record(std::move(r)), util::InvalidArgument);
}

TEST(WorkflowTrace, TotalCountersSum) {
  WorkflowTrace t;
  TaskRecord a = make_record("a", 0.0, 1.0);
  a.counters.fs_read_bytes = 10.0;
  TaskRecord b = make_record("b", 0.0, 1.0);
  b.counters.fs_read_bytes = 5.0;
  b.counters.flops = 7.0;
  t.add_record(std::move(a));
  t.add_record(std::move(b));
  EXPECT_DOUBLE_EQ(t.total_counters().fs_read_bytes, 15.0);
  EXPECT_DOUBLE_EQ(t.total_counters().flops, 7.0);
}

TEST(WorkflowTrace, PeakConcurrencyCountsOverlaps) {
  WorkflowTrace t;
  t.add_record(make_record("a", 0.0, 10.0));
  t.add_record(make_record("b", 5.0, 15.0));
  t.add_record(make_record("c", 9.0, 12.0));
  EXPECT_EQ(t.peak_concurrency(), 3);
}

TEST(WorkflowTrace, PeakConcurrencyEndBeforeStartAtSameInstant) {
  WorkflowTrace t;
  t.add_record(make_record("a", 0.0, 5.0));
  t.add_record(make_record("b", 5.0, 10.0));
  EXPECT_EQ(t.peak_concurrency(), 1);
}

TEST(WorkflowTrace, PeakConcurrencyIgnoresZeroDurationTasks) {
  WorkflowTrace t;
  t.add_record(make_record("instant", 1.0, 1.0));
  EXPECT_EQ(t.peak_concurrency(), 0);
}

TEST(WorkflowTrace, JsonRoundTrip) {
  WorkflowTrace t("lcls");
  TaskRecord r = make_record("a0", 0.0, 1020.0, 32);
  r.kind = "analysis";
  r.spans.push_back(Span{Phase::kExternalIn, 0.0, 1000.0});
  r.spans.push_back(Span{Phase::kWork, 1000.0, 1020.0});
  r.counters.external_in_bytes = 1e12;
  r.counters.dram_bytes = 32e9 * 32;
  t.add_record(std::move(r));

  const WorkflowTrace back = WorkflowTrace::from_json(t.to_json());
  EXPECT_EQ(back.name(), "lcls");
  ASSERT_EQ(back.records().size(), 1u);
  const TaskRecord& b = back.records()[0];
  EXPECT_EQ(b.name, "a0");
  EXPECT_EQ(b.kind, "analysis");
  EXPECT_EQ(b.nodes, 32);
  EXPECT_DOUBLE_EQ(b.end_seconds, 1020.0);
  ASSERT_EQ(b.spans.size(), 2u);
  EXPECT_EQ(b.spans[0].phase, Phase::kExternalIn);
  EXPECT_DOUBLE_EQ(b.counters.external_in_bytes, 1e12);
  EXPECT_DOUBLE_EQ(b.counters.dram_bytes, 32e9 * 32);
}

}  // namespace
}  // namespace wfr::trace

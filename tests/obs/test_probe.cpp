#include "obs/probe.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wfr::obs {
namespace {

TEST(TimeSeries, RecordsIntervalsAndCumulativeVolume) {
  ResourceTimeSeries ts("fs", 1e12);
  ts.record(0.0, 2.0, 3, 2, 1e9, 4e9);
  ts.record(2.0, 1.0, 2, 1, 1.5e9, 1.5e9);
  ASSERT_EQ(ts.samples().size(), 2u);
  EXPECT_DOUBLE_EQ(ts.samples()[0].end_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(ts.samples()[0].cumulative_bytes, 4e9);
  EXPECT_DOUBLE_EQ(ts.samples()[1].cumulative_bytes, 5.5e9);
  EXPECT_DOUBLE_EQ(ts.summarize().delivered_bytes, 5.5e9);
}

TEST(TimeSeries, CoalescesContiguousSamePopulationIntervals) {
  ResourceTimeSeries ts("fs", 1e12);
  ts.record(0.0, 1.0, 2, 2, 5e11, 1e12);
  ts.record(1.0, 1.0, 2, 2, 5e11, 1e12);  // same population, contiguous
  ASSERT_EQ(ts.samples().size(), 1u);
  EXPECT_DOUBLE_EQ(ts.samples()[0].duration_seconds, 2.0);
  EXPECT_DOUBLE_EQ(ts.samples()[0].delivered_bytes, 2e12);
  EXPECT_DOUBLE_EQ(ts.summarize().delivered_bytes, 2e12);
}

TEST(TimeSeries, PopulationChangeBreaksCoalescing) {
  ResourceTimeSeries ts("fs", 1e12);
  ts.record(0.0, 1.0, 2, 2, 5e11, 1e12);
  ts.record(1.0, 1.0, 1, 1, 1e12, 1e12);  // contiguous but one flow left
  EXPECT_EQ(ts.samples().size(), 2u);
}

TEST(TimeSeries, GapBreaksCoalescing) {
  ResourceTimeSeries ts("fs", 1e12);
  ts.record(0.0, 1.0, 1, 1, 1e12, 1e12);
  ts.record(5.0, 1.0, 1, 1, 1e12, 1e12);  // idle gap in between
  ASSERT_EQ(ts.samples().size(), 2u);
  EXPECT_DOUBLE_EQ(ts.samples()[1].start_seconds, 5.0);
}

TEST(TimeSeries, UtilizationIsFiniteShareOfActive) {
  ResourceSample s;
  s.active_flows = 4;
  s.finite_flows = 1;
  EXPECT_DOUBLE_EQ(s.utilization(), 0.25);
  s.active_flows = 0;
  EXPECT_DOUBLE_EQ(s.utilization(), 0.0);
}

TEST(TimeSeries, SummaryIsTimeWeighted) {
  ResourceTimeSeries ts("fs", 1e12);
  // 9 s fully utilized, then 1 s at 50% (a background flow appears).
  ts.record(0.0, 9.0, 1, 1, 1e9, 9e9);
  ts.record(9.0, 1.0, 2, 1, 5e8, 5e8);
  const ResourceSummary s = ts.summarize();
  EXPECT_EQ(s.name, "fs");
  EXPECT_DOUBLE_EQ(s.capacity, 1e12);
  EXPECT_DOUBLE_EQ(s.active_seconds, 10.0);
  EXPECT_DOUBLE_EQ(s.busy_seconds, 10.0);
  EXPECT_DOUBLE_EQ(s.delivered_bytes, 9.5e9);
  // Time-weighted: 90% of the time at utilization 1.0.
  EXPECT_DOUBLE_EQ(s.p50_utilization, 1.0);
  EXPECT_DOUBLE_EQ(s.p95_utilization, 1.0);
  EXPECT_DOUBLE_EQ(s.max_utilization, 1.0);
  EXPECT_NEAR(s.mean_utilization, (9.0 * 1.0 + 1.0 * 0.5) / 10.0, 1e-12);
  EXPECT_EQ(s.peak_active_flows, 2);
  EXPECT_EQ(s.peak_finite_flows, 1);
}

TEST(TimeSeries, ZeroDurationSummaryUsesSampleMean) {
  // With no duration to weight by, the mean falls back to the plain mean
  // of the samples' utilizations.
  ResourceTimeSeries ts("fs", 1e12);
  ts.record(0.0, 0.0, 2, 1, 5e11, 0.0);    // u = 0.5
  ts.record(1.0, 0.0, 4, 1, 2.5e11, 0.0);  // u = 0.25, not contiguous
  ts.record(2.0, 0.0, 1, 1, 1e12, 0.0);    // u = 1
  const ResourceSummary s = ts.summarize();
  EXPECT_DOUBLE_EQ(s.mean_utilization, (0.5 + 0.25 + 1.0) / 3.0);
  EXPECT_DOUBLE_EQ(s.max_utilization, 1.0);
}

TEST(TimeSeries, PercentileRespectsDurationNotSampleCount) {
  ResourceTimeSeries ts("fs", 1e12);
  // Many short low-utilization samples must not outweigh one long
  // saturated interval: 1 s total at 0.5 in ten slices vs 9 s at 1.0.
  for (int i = 0; i < 10; ++i)
    ts.record(0.1 * i, 0.1, 2, 1, 5e8, 5e7);
  ts.record(1.0, 9.0, 1, 1, 1e9, 9e9);
  const ResourceSummary s = ts.summarize();
  EXPECT_DOUBLE_EQ(s.p50_utilization, 1.0);
}

TEST(TimeSeries, ClearKeepsIdentityDropsSamples) {
  ResourceTimeSeries ts("fs", 1e12);
  ts.record(0.0, 1.0, 1, 1, 1e9, 1e9);
  ts.clear();
  EXPECT_TRUE(ts.samples().empty());
  EXPECT_EQ(ts.name(), "fs");
  EXPECT_DOUBLE_EQ(ts.summarize().delivered_bytes, 0.0);
  // Cumulative restarts from zero after clear.
  ts.record(0.0, 1.0, 1, 1, 2e9, 2e9);
  EXPECT_DOUBLE_EQ(ts.summarize().delivered_bytes, 2e9);
}

TEST(Probe, RegistersAndRoutesById) {
  ResourceProbe probe;
  probe.register_resource(0, "fs", 1e12);
  probe.register_resource(1, "external", 1e10);
  probe.record(0, 0.0, 1.0, 1, 1, 1e12, 1e12);
  probe.record(1, 0.0, 2.0, 3, 3, 3e9, 1.8e10);
  ASSERT_EQ(probe.series().size(), 2u);
  EXPECT_DOUBLE_EQ(probe.series()[0].summarize().delivered_bytes, 1e12);
  EXPECT_DOUBLE_EQ(probe.series()[1].summarize().delivered_bytes, 1.8e10);
}

TEST(Probe, RecordingUnregisteredIdThrows) {
  ResourceProbe probe;
  EXPECT_THROW(probe.record(0, 0.0, 1.0, 1, 1, 1.0, 1.0),
               util::InvalidArgument);
}

TEST(Probe, ReRegistrationKeepsSamplesUpdatesCapacity) {
  ResourceProbe probe;
  probe.register_resource(0, "fs", 1e12);
  probe.record(0, 0.0, 1.0, 1, 1, 1e12, 1e12);
  probe.register_resource(0, "fs", 2e12);
  EXPECT_EQ(probe.series()[0].samples().size(), 1u);
  EXPECT_DOUBLE_EQ(probe.series()[0].summarize().capacity, 2e12);
}

TEST(Probe, ResetClearsEverySeries) {
  ResourceProbe probe;
  probe.register_resource(0, "fs", 1e12);
  probe.register_resource(1, "external", 1e10);
  probe.record(0, 0.0, 1.0, 1, 1, 1e12, 1e12);
  probe.record(1, 0.0, 1.0, 1, 1, 1e10, 1e10);
  probe.reset();
  EXPECT_TRUE(probe.series()[0].samples().empty());
  EXPECT_TRUE(probe.series()[1].samples().empty());
  EXPECT_EQ(probe.series()[0].name(), "fs");  // registrations survive
}

TEST(Probe, SummariesFollowRegistrationOrder) {
  ResourceProbe probe;
  probe.register_resource(0, "fs", 1e12);
  probe.register_resource(1, "external", 1e10);
  const std::vector<ResourceSummary> s = probe.summaries();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].name, "fs");
  EXPECT_EQ(s[1].name, "external");
}

}  // namespace
}  // namespace wfr::obs

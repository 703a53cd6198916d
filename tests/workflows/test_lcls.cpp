#include "workflows/lcls.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/units.hpp"

namespace wfr::workflows {
namespace {

// The trace record of the task named `name`.
const trace::TaskRecord& record_of(const trace::WorkflowTrace& trace,
                                   const std::string& name) {
  for (const trace::TaskRecord& r : trace.records())
    if (r.name == name) return r;
  throw std::out_of_range("no task record named " + name);
}

TEST(LclsStudy, GoodDayLandsNearPaper17Minutes) {
  const LclsStudyResult r = run_lcls(lcls_cori_good_day());
  EXPECT_NEAR(r.trace.makespan_seconds(), 17.0 * 60.0, 60.0);
}

TEST(LclsStudy, BadDayLandsNearPaper85Minutes) {
  const LclsStudyResult r = run_lcls(lcls_cori_bad_day());
  EXPECT_NEAR(r.trace.makespan_seconds(), 85.0 * 60.0, 120.0);
}

TEST(LclsStudy, ContentionSplitIsAboutFiveX) {
  const double good = run_lcls(lcls_cori_good_day()).trace.makespan_seconds();
  const double bad = run_lcls(lcls_cori_bad_day()).trace.makespan_seconds();
  EXPECT_NEAR(bad / good, 5.0, 0.4);
}

TEST(LclsStudy, BothCoriDotsRideTheExternalCeiling) {
  for (const LclsScenario& s : {lcls_cori_good_day(), lcls_cori_bad_day()}) {
    const LclsStudyResult r = run_lcls(s);
    ASSERT_EQ(r.model.dots().size(), 1u);
    const core::Dot& dot = r.model.dots()[0];
    EXPECT_EQ(r.model.classify(dot), core::BoundClass::kSystemBound)
        << s.label;
    EXPECT_EQ(r.model.binding_ceiling(dot.parallel_tasks).channel,
              core::Channel::kExternal);
    // "The two dots overlapped with their system external boundary."
    EXPECT_GT(r.model.efficiency(dot), 0.85) << s.label;
  }
}

TEST(LclsStudy, GoodDayStillMissesThe2020Target) {
  const LclsStudyResult r = run_lcls(lcls_cori_good_day());
  const core::Dot& dot = r.model.dots()[0];
  EXPECT_EQ(r.model.zone_of(dot), core::Zone::kPoorMakespanPoorThroughput);
  // "Even with the average bandwidth one can never meet the target":
  // the attainable throughput at the wall sits below the target.
  EXPECT_LT(r.model.attainable_tps(r.model.parallelism_wall()),
            r.model.target_throughput_tps());
}

TEST(LclsStudy, CoriParallelismWallAt74) {
  const LclsStudyResult r = run_lcls(lcls_cori_good_day());
  EXPECT_EQ(r.model.parallelism_wall(), 74);
}

TEST(LclsStudy, PmDtnWallAt384AndIdealLoadTime) {
  const LclsStudyResult r = run_lcls(lcls_pm_dtn());
  EXPECT_EQ(r.model.parallelism_wall(), 384);
  // "Ideally one can load all 5 TB in 3.4 minutes" at 25 GB/s.
  const trace::TimeBreakdown& b = r.breakdown;
  EXPECT_NEAR(b.component("Loading data").seconds, 200.0, 10.0);
}

TEST(LclsStudy, PmDtnCeilingSlightlyAboveTarget) {
  // Fig. 6: the external boundary at 25 GB/s sits slightly above the 2024
  // target-throughput line.
  const LclsStudyResult r = run_lcls(lcls_pm_dtn());
  const core::Ceiling& ext = r.model.binding_ceiling(5.0);
  EXPECT_EQ(ext.channel, core::Channel::kExternal);
  EXPECT_GT(ext.tps_limit, r.model.target_throughput_tps());
  EXPECT_LT(ext.tps_limit, 2.0 * r.model.target_throughput_tps());
}

TEST(LclsStudy, ContendedPmCanNeverMeetTargets) {
  const LclsStudyResult r = run_lcls(lcls_pm_dtn_contended());
  EXPECT_LT(r.model.attainable_tps(r.model.parallelism_wall()),
            r.model.target_throughput_tps());
}

TEST(LclsStudy, FileSystemIsNotTheBottleneckOnPm) {
  // Fig. 6: "the system internal bandwidth is far on the top".
  const LclsStudyResult r = run_lcls(lcls_pm_dtn());
  for (const core::Ceiling& c : r.model.ceilings()) {
    if (c.channel == core::Channel::kFilesystem) {
      const core::Ceiling& binding = r.model.binding_ceiling(5.0);
      EXPECT_GT(c.tps_limit, 10.0 * binding.tps_at(5.0));
    }
  }
}

TEST(LclsStudy, BreakdownLoadingDominates) {
  // Fig. 5b: loading data from external storage is the bottleneck.
  const LclsStudyResult r = run_lcls(lcls_cori_bad_day());
  EXPECT_GT(r.breakdown.component("Loading data").seconds,
            10.0 * r.breakdown.component("Analysis").seconds);
  EXPECT_NEAR(r.breakdown.total_seconds(), r.trace.makespan_seconds(), 1.0);
}

TEST(LclsStudy, TraceShapeMatchesSkeleton) {
  const LclsStudyResult r = run_lcls(lcls_cori_good_day());
  EXPECT_EQ(r.trace.records().size(), 6u);
  EXPECT_EQ(r.trace.peak_concurrency(), 5);
  // The merge starts only after all analysis tasks are done.
  const trace::TaskRecord& merge = record_of(r.trace, "merge");
  for (int i = 0; i < 5; ++i) {
    const trace::TaskRecord& a =
        record_of(r.trace, "analysis_" + std::to_string(i));
    EXPECT_GE(merge.start_seconds, a.end_seconds - 1e-9);
  }
}

TEST(LclsStudy, DotLabelCarriesScenario) {
  const LclsStudyResult r = run_lcls(lcls_cori_bad_day());
  EXPECT_EQ(r.model.dots()[0].label, "bad day");
}

}  // namespace
}  // namespace wfr::workflows

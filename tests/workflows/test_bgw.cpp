#include "workflows/bgw.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace wfr::workflows {
namespace {

// The trace record of the task named `name`.
const trace::TaskRecord& record_of(const trace::WorkflowTrace& trace,
                                   const std::string& name) {
  for (const trace::TaskRecord& r : trace.records())
    if (r.name == name) return r;
  throw std::out_of_range("no task record named " + name);
}

// The task view entry labelled `label`.
const core::TaskViewEntry& entry_of(const core::TaskView& view,
                                    const std::string& label) {
  for (const core::TaskViewEntry& e : view.entries())
    if (e.label == label) return e;
  throw std::out_of_range("no task view entry " + label);
}

TEST(BgwStudy, MakespanMatchesPaperAtBothScales) {
  EXPECT_NEAR(run_bgw(64).trace.makespan_seconds(), 4184.86, 5.0);
  EXPECT_NEAR(run_bgw(1024).trace.makespan_seconds(), 404.74, 5.0);
}

TEST(BgwStudy, NodeBoundAt64Nodes) {
  const BgwStudyResult r = run_bgw(64);
  const core::Dot& dot = r.model.dots()[0];
  EXPECT_EQ(r.model.classify(dot), core::BoundClass::kNodeBound);
  EXPECT_EQ(r.model.binding_ceiling(1.0).channel, core::Channel::kCompute);
  // The paper: 42% of node peak.
  EXPECT_NEAR(r.model.efficiency(dot), 0.42, 0.02);
}

TEST(BgwStudy, Roughly30PercentAt1024Nodes) {
  const BgwStudyResult r = run_bgw(1024);
  EXPECT_NEAR(r.model.efficiency(r.model.dots()[0]), 0.28, 0.03);
}

TEST(BgwStudy, WallMovesFrom28To1) {
  EXPECT_EQ(run_bgw(64).model.parallelism_wall(), 28);
  EXPECT_EQ(run_bgw(1024).model.parallelism_wall(), 1);
}

TEST(BgwStudy, FastVsHighThroughputTradeoff) {
  // 1024 nodes: single result back in minutes (fast, low throughput).
  // 64 nodes: batch results in hours (slow, high aggregate throughput at
  // the wall).
  const BgwStudyResult small = run_bgw(64);
  const BgwStudyResult large = run_bgw(1024);
  EXPECT_LT(large.trace.makespan_seconds(), small.trace.makespan_seconds());
  const double batch_tps = small.model.attainable_tps(28.0);
  const double urgent_tps = large.model.attainable_tps(1.0);
  EXPECT_GT(batch_tps, urgent_tps);
}

TEST(BgwStudy, TaskViewSigmaDominates) {
  const BgwStudyResult r = run_bgw(64);
  EXPECT_EQ(r.task_view.dominant().label, "sigma @ 64 nodes");
  // Epsilon has more node-efficiency headroom (farther from its ceiling).
  EXPECT_EQ(r.task_view.least_efficient().label, "epsilon @ 64 nodes");
}

TEST(BgwStudy, CombinedTaskViewHasFourEntries) {
  const core::TaskView v = bgw_combined_task_view();
  ASSERT_EQ(v.entries().size(), 4u);
  // Lower dot = longer makespan: sigma @ 64 has the largest measured time.
  EXPECT_EQ(v.dominant().label, "sigma @ 64 nodes");
  // At 1024 nodes the two dots crowd together but sigma still trails.
  const core::TaskViewEntry& e1024 = entry_of(v, "epsilon @ 1024 nodes");
  const core::TaskViewEntry& s1024 = entry_of(v, "sigma @ 1024 nodes");
  EXPECT_GT(s1024.measured_seconds, e1024.measured_seconds);
  EXPECT_LT(s1024.measured_seconds / e1024.measured_seconds, 3.0);
}

TEST(BgwStudy, CriticalPathShapeInvariantAcrossScales) {
  // Fig. 7d: the critical path is epsilon -> sigma at both scales; only
  // its length changes.
  const BgwStudyResult small = run_bgw(64);
  const BgwStudyResult large = run_bgw(1024);
  ASSERT_EQ(small.critical_path.tasks.size(), 2u);
  ASSERT_EQ(large.critical_path.tasks.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(small.graph.task(small.critical_path.tasks[i]).name,
              large.graph.task(large.critical_path.tasks[i]).name);
  }
  EXPECT_NEAR(small.critical_path.length_seconds, 4184.86, 5.0);
  EXPECT_NEAR(large.critical_path.length_seconds, 404.74, 5.0);
}

TEST(BgwStudy, SigmaStartsWhenEpsilonEnds) {
  const BgwStudyResult r = run_bgw(64);
  const trace::TaskRecord& e = record_of(r.trace, "epsilon");
  const trace::TaskRecord& s = record_of(r.trace, "sigma");
  EXPECT_NEAR(s.start_seconds, e.end_seconds, 1e-6);
}

TEST(BgwStudy, NetworkCeilingMovesUpWithScale) {
  // Fig. 7b: more nodes -> more aggregate NIC bandwidth -> the network
  // ceiling rises (shorter network time per task).
  auto network_seconds = [](const BgwStudyResult& r) {
    for (const core::Ceiling& c : r.model.ceilings())
      if (c.channel == core::Channel::kNetwork) return c.seconds_per_task;
    return -1.0;
  };
  const double t64 = network_seconds(run_bgw(64));
  const double t1024 = network_seconds(run_bgw(1024));
  ASSERT_GT(t64, 0.0);
  ASSERT_GT(t1024, 0.0);
  EXPECT_NEAR(t64 / t1024, 16.0, 0.1);  // 1024/64
}

}  // namespace
}  // namespace wfr::workflows

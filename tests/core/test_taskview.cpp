#include "core/taskview.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/runner.hpp"
#include "util/error.hpp"

namespace wfr::core {
namespace {

// The task view entry labelled `label`.
const TaskViewEntry& entry_of(const TaskView& view,
                              const std::string& label) {
  for (const TaskViewEntry& e : view.entries())
    if (e.label == label) return e;
  throw std::out_of_range("no task view entry " + label);
}

TaskViewEntry entry(const std::string& label, double ceiling, double measured,
                    int nodes = 64) {
  TaskViewEntry e;
  e.label = label;
  e.group = label;
  e.nodes = nodes;
  e.ceiling_seconds = ceiling;
  e.measured_seconds = measured;
  return e;
}

TEST(TaskViewEntry, DerivedQuantities) {
  const TaskViewEntry e = entry("epsilon", 469.0, 1109.0);
  EXPECT_NEAR(e.tps(), 1.0 / 1109.0, 1e-12);
  EXPECT_NEAR(e.ceiling_tps(), 1.0 / 469.0, 1e-12);
  EXPECT_NEAR(e.efficiency(), 469.0 / 1109.0, 1e-12);
}

TEST(TaskViewEntry, ZeroMeasuredHasZeroEfficiency) {
  const TaskViewEntry e = entry("x", 10.0, 0.0);
  EXPECT_DOUBLE_EQ(e.efficiency(), 0.0);
  EXPECT_THROW(e.tps(), util::InvalidArgument);
}

TEST(TaskView, DominantIsSlowestTask) {
  TaskView v;
  v.add(entry("epsilon", 469.0, 1109.0));
  v.add(entry("sigma", 1299.0, 3076.0));
  EXPECT_EQ(v.dominant().label, "sigma");  // Fig. 7c: Sigma dominates
}

TEST(TaskView, LeastEfficientIsTheTuningCandidate) {
  TaskView v;
  // Epsilon farther from its ceiling than Sigma (the paper's observation).
  v.add(entry("epsilon", 469.0, 1300.0));  // 36%
  v.add(entry("sigma", 1299.0, 2885.0));   // 45%
  EXPECT_EQ(v.least_efficient().label, "epsilon");
}

TEST(TaskView, EmptyViewThrows) {
  TaskView v;
  EXPECT_TRUE(v.empty());
  EXPECT_THROW(v.dominant(), util::InvalidArgument);
  EXPECT_THROW(v.least_efficient(), util::InvalidArgument);
}

TEST(TaskView, AddValidates) {
  TaskView v;
  TaskViewEntry bad = entry("", 1.0, 1.0);
  EXPECT_THROW(v.add(bad), util::InvalidArgument);
  TaskViewEntry negative = entry("x", -1.0, 1.0);
  EXPECT_THROW(v.add(negative), util::InvalidArgument);
}

TEST(TaskView, ReportListsEntries) {
  TaskView v;
  v.add(entry("epsilon", 469.0, 1109.0));
  const std::string r = v.report();
  EXPECT_NE(r.find("epsilon"), std::string::npos);
  EXPECT_NE(r.find("42%"), std::string::npos);
}

TEST(TaskViewFromTrace, BuildsCeilingsFromDemands) {
  // Two-stage chain on a toy machine.
  dag::TaskSpec e;
  e.name = "epsilon";
  e.kind = "epsilon";
  e.nodes = 4;
  e.demand.flops_per_node = 10e12;  // 10 s ceiling at 1 TFLOP/s
  e.fixed_duration_seconds = 25.0;  // measured: 40% of peak
  dag::TaskSpec s;
  s.name = "sigma";
  s.kind = "sigma";
  s.nodes = 4;
  s.demand.flops_per_node = 30e12;  // 30 s ceiling
  s.fixed_duration_seconds = 60.0;  // measured: 50% of peak
  dag::WorkflowGraph g("bgw");
  const auto eid = g.add_task(e);
  const auto sid = g.add_task(s);
  g.add_dependency(eid, sid);

  sim::MachineConfig m;
  m.name = "toy";
  m.total_nodes = 8;
  m.node_flops = 1e12;
  const trace::WorkflowTrace tr = sim::run_workflow(g, m);

  SystemSpec spec = SystemSpec::from_machine(m);
  const TaskView v = task_view_from_trace(g, tr, spec);
  ASSERT_EQ(v.entries().size(), 2u);
  const TaskViewEntry& eps = entry_of(v, "epsilon @ 4 nodes");
  EXPECT_DOUBLE_EQ(eps.ceiling_seconds, 10.0);
  EXPECT_DOUBLE_EQ(eps.measured_seconds, 25.0);
  EXPECT_EQ(eps.level, 0);
  const TaskViewEntry& sig = entry_of(v, "sigma @ 4 nodes");
  EXPECT_EQ(sig.level, 1);
  EXPECT_EQ(v.dominant().label, "sigma @ 4 nodes");
  EXPECT_EQ(v.least_efficient().label, "epsilon @ 4 nodes");
}

}  // namespace
}  // namespace wfr::core

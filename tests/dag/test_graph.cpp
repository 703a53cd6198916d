#include "dag/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "util/error.hpp"

namespace wfr::dag {
namespace {

TaskSpec simple_task(const std::string& name, int nodes = 1) {
  TaskSpec t;
  t.name = name;
  t.nodes = nodes;
  return t;
}

// The paper's LCLS skeleton (Fig. 4): five parallel analysis tasks feeding
// one merge; critical path length two.
WorkflowGraph lcls_skeleton() {
  return make_fork_join("lcls", simple_task("analysis", 16), 5,
                        simple_task("merge", 1));
}

TEST(WorkflowGraph, AddTaskAssignsSequentialIds) {
  WorkflowGraph g("w");
  EXPECT_EQ(g.add_task(simple_task("a")), 0u);
  EXPECT_EQ(g.add_task(simple_task("b")), 1u);
  EXPECT_EQ(g.task_count(), 2u);
}

// The message of an InvalidArgument thrown by `fn`, or "" when none is.
template <typename Fn>
std::string invalid_argument_message(Fn fn) {
  try {
    fn();
  } catch (const util::InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(WorkflowGraph, RejectsDuplicateNames) {
  WorkflowGraph g("w");
  g.add_task(simple_task("a"));
  EXPECT_THROW(g.add_task(simple_task("a")), util::InvalidArgument);
  // A name is message data, never part of the format.
  g.add_task(simple_task("a%sb"));
  EXPECT_EQ(invalid_argument_message([&] { g.add_task(simple_task("a%sb")); }),
            "duplicate task name 'a%sb'");
}

TEST(WorkflowGraph, FindTaskByName) {
  WorkflowGraph g("w");
  g.add_task(simple_task("a"));
  const TaskId b = g.add_task(simple_task("b"));
  EXPECT_EQ(g.find_task("b"), b);
  EXPECT_EQ(g.find_task_or_invalid("zzz"), kInvalidTask);
  EXPECT_THROW(g.find_task("zzz"), util::NotFound);
}

TEST(WorkflowGraph, RejectsSelfDependency) {
  WorkflowGraph g("w");
  const TaskId a = g.add_task(simple_task("a"));
  EXPECT_THROW(g.add_dependency(a, a), util::InvalidArgument);
  const TaskId b = g.add_task(simple_task("a%sb"));
  EXPECT_EQ(invalid_argument_message([&] { g.add_dependency(b, b); }),
            "self-dependency on task 'a%sb'");
}

TEST(WorkflowGraph, RejectsUnknownIds) {
  WorkflowGraph g("w");
  g.add_task(simple_task("a"));
  EXPECT_THROW(g.add_dependency(0, 7), util::NotFound);
  EXPECT_THROW(g.task(9), util::NotFound);
}

TEST(WorkflowGraph, DuplicateEdgesAreIgnored) {
  WorkflowGraph g("w");
  const TaskId a = g.add_task(simple_task("a"));
  const TaskId b = g.add_task(simple_task("b"));
  g.add_dependency(a, b);
  g.add_dependency(a, b);
  EXPECT_EQ(g.successors(a).size(), 1u);
  EXPECT_EQ(g.predecessors(b).size(), 1u);
}

TEST(WorkflowGraph, DetectsCycle) {
  WorkflowGraph g("w");
  const TaskId a = g.add_task(simple_task("a"));
  const TaskId b = g.add_task(simple_task("b"));
  const TaskId c = g.add_task(simple_task("c"));
  g.add_dependency(a, b);
  g.add_dependency(b, c);
  g.add_dependency(c, a);
  EXPECT_THROW(g.validate(), util::InvalidArgument);
  EXPECT_THROW(g.levels(), util::InvalidArgument);
  EXPECT_THROW(g.topological_order(), util::InvalidArgument);
  EXPECT_THROW(g.critical_path(), util::InvalidArgument);
}

TEST(WorkflowGraph, TopologicalOrderRespectsEdges) {
  WorkflowGraph g = lcls_skeleton();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 6u);
  // The merge task (last added) must come after every analysis task.
  const TaskId merge = g.find_task("merge");
  EXPECT_EQ(order.back(), merge);
}

TEST(WorkflowGraph, LclsSkeletonLevels) {
  WorkflowGraph g = lcls_skeleton();
  EXPECT_EQ(g.level_count(), 2);  // the paper's critical path length of two
  const auto widths = g.level_widths();
  ASSERT_EQ(widths.size(), 2u);
  EXPECT_EQ(widths[0], 5);  // five parallel tasks at level 0
  EXPECT_EQ(widths[1], 1);
  EXPECT_EQ(g.max_parallel_tasks(), 5);
}

TEST(WorkflowGraph, ChainLevels) {
  WorkflowGraph g("bgw");
  const TaskId epsilon = g.add_task(simple_task("epsilon", 64));
  g.add_dependency(epsilon, g.add_task(simple_task("sigma", 64)));
  EXPECT_EQ(g.level_count(), 2);
  EXPECT_EQ(g.max_parallel_tasks(), 1);  // BGW: one task per level
}

TEST(WorkflowGraph, DiamondLevels) {
  WorkflowGraph g("d");
  const TaskId s = g.add_task(simple_task("s"));
  const TaskId a = g.add_task(simple_task("a"));
  const TaskId b = g.add_task(simple_task("b"));
  const TaskId t = g.add_task(simple_task("t"));
  g.add_dependency(s, a);
  g.add_dependency(s, b);
  g.add_dependency(a, t);
  g.add_dependency(b, t);
  const auto levels = g.levels();
  EXPECT_EQ(levels[s], 0);
  EXPECT_EQ(levels[a], 1);
  EXPECT_EQ(levels[b], 1);
  EXPECT_EQ(levels[t], 2);
  EXPECT_EQ(g.max_parallel_tasks(), 2);
}

TEST(WorkflowGraph, CriticalPathUnitWeights) {
  WorkflowGraph g = lcls_skeleton();
  const CriticalPath cp = g.critical_path();
  EXPECT_DOUBLE_EQ(cp.length_seconds, 2.0);
  EXPECT_EQ(cp.tasks.size(), 2u);
  EXPECT_EQ(cp.tasks.back(), g.find_task("merge"));
}

TEST(WorkflowGraph, CriticalPathWithDurations) {
  WorkflowGraph g = lcls_skeleton();
  // Make analysis_2 the slowest branch.
  std::vector<double> durations(g.task_count(), 10.0);
  durations[g.find_task("analysis_2")] = 100.0;
  durations[g.find_task("merge")] = 5.0;
  const CriticalPath cp = g.critical_path(durations);
  EXPECT_DOUBLE_EQ(cp.length_seconds, 105.0);
  ASSERT_EQ(cp.tasks.size(), 2u);
  EXPECT_EQ(cp.tasks[0], g.find_task("analysis_2"));
}

TEST(WorkflowGraph, CriticalPathDurationSizeMismatchThrows) {
  WorkflowGraph g = lcls_skeleton();
  std::vector<double> durations(2, 1.0);
  EXPECT_THROW(g.critical_path(durations), util::InvalidArgument);
}

TEST(WorkflowGraph, TotalDemandSums) {
  WorkflowGraph g("w");
  TaskSpec a = simple_task("a");
  a.demand.external_in_bytes = 1e12;
  TaskSpec b = simple_task("b");
  b.demand.external_in_bytes = 2e12;
  g.add_task(a);
  g.add_task(b);
  EXPECT_DOUBLE_EQ(g.total_demand().external_in_bytes, 3e12);
}

TEST(WorkflowGraph, EmptyGraphQueries) {
  WorkflowGraph g("empty");
  EXPECT_EQ(g.level_count(), 0);
  EXPECT_EQ(g.max_parallel_tasks(), 0);
  EXPECT_TRUE(g.critical_path().tasks.empty());
  EXPECT_NO_THROW(g.validate());
}

TEST(MakeForkJoin, ValidatesWidth) {
  EXPECT_THROW(
      make_fork_join("x", simple_task("p"), 0, simple_task("j")),
      util::InvalidArgument);
}

}  // namespace
}  // namespace wfr::dag

#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sim/runner.hpp"
#include "util/error.hpp"

namespace wfr::core {
namespace {

sim::MachineConfig toy_machine(int nodes = 100) {
  sim::MachineConfig m;
  m.name = "toy";
  m.total_nodes = nodes;
  m.node_flops = 1e12;
  m.fs_gbs = 1e12;
  m.external_gbs = 10e9;
  return m;
}

dag::TaskSpec compute(const std::string& name, double seconds,
                      int nodes = 1) {
  dag::TaskSpec t;
  t.name = name;
  t.nodes = nodes;
  t.demand.flops_per_node = seconds * 1e12;
  return t;
}

// `count` copies of `stage` named s_0, s_1, ..., each depending on the last.
dag::WorkflowGraph chain(const dag::TaskSpec& stage, int count) {
  dag::WorkflowGraph g("chain");
  for (int i = 0; i < count; ++i) {
    dag::TaskSpec spec = stage;
    spec.name += "_" + std::to_string(i);
    const dag::TaskId id = g.add_task(std::move(spec));
    if (i > 0) g.add_dependency(id - 1, id);
  }
  return g;
}

TEST(PipelineReport, PureChainIsCriticalPathLimited) {
  dag::WorkflowGraph g = chain(compute("s", 10.0), 3);
  const trace::WorkflowTrace t = sim::run_workflow(g, toy_machine());
  const PipelineReport r = pipeline_report(g, t);
  EXPECT_EQ(r.total_tasks, 3);
  EXPECT_EQ(r.critical_path_tasks, 3);
  EXPECT_NEAR(r.critical_path_ratio, 1.0, 1e-9);
  EXPECT_NEAR(r.average_concurrency, 1.0, 1e-9);
  EXPECT_NE(r.verdict.find("critical-path-limited"), std::string::npos);
}

TEST(PipelineReport, BalancedForkJoinIsWellPipelined) {
  dag::WorkflowGraph g =
      dag::make_fork_join("fj", compute("p", 10.0), 5, compute("j", 1.0));
  const trace::WorkflowTrace t = sim::run_workflow(g, toy_machine());
  const PipelineReport r = pipeline_report(g, t);
  EXPECT_EQ(r.critical_path_tasks, 2);
  // Makespan 11 s; critical path 11 s -> ratio 1 but concurrency 5-wide.
  EXPECT_NEAR(r.critical_path_ratio, 1.0, 1e-9);
  EXPECT_NEAR(r.average_concurrency, 51.0 / 11.0, 1e-6);
  EXPECT_EQ(r.peak_concurrency, 5);
}

TEST(PipelineReport, ResourceStallIsDetected) {
  // 4 independent 10 s tasks of 50 nodes on a 50-node pool: they
  // serialize although the DAG has no chain — the makespan is 4x the
  // critical path and the verdict flags the stall.
  dag::WorkflowGraph g("stalled");
  for (int i = 0; i < 4; ++i)
    g.add_task(compute("t" + std::to_string(i), 10.0, 50));
  const trace::WorkflowTrace t = sim::run_workflow(g, toy_machine(50));
  const PipelineReport r = pipeline_report(g, t);
  EXPECT_EQ(r.critical_path_tasks, 1);
  EXPECT_NEAR(r.critical_path_ratio, 0.25, 1e-6);
  EXPECT_NEAR(r.average_concurrency, 1.0, 1e-6);
  EXPECT_NE(r.verdict.find("pipeline-stalled"), std::string::npos);
}

TEST(PipelineReport, ToStringMentionsEverything) {
  dag::WorkflowGraph g = chain(compute("s", 5.0), 2);
  const trace::WorkflowTrace t = sim::run_workflow(g, toy_machine());
  const std::string s = pipeline_report(g, t).to_string();
  EXPECT_NE(s.find("critical path 2 tasks"), std::string::npos);
  EXPECT_NE(s.find("verdict:"), std::string::npos);
}

TEST(PipelineReport, Validation) {
  dag::WorkflowGraph g = chain(compute("s", 5.0), 2);
  trace::WorkflowTrace empty;
  EXPECT_THROW(pipeline_report(g, empty), util::InvalidArgument);
}

TEST(PipelineReport, BgwChainShape) {
  // The BGW case: a two-task chain, so the ratio must be ~1 at both
  // scales — pipeline strategy is NOT the BGW bottleneck.
  dag::WorkflowGraph g("bgw-like");
  dag::TaskSpec e = compute("epsilon", 0.0, 4);
  e.fixed_duration_seconds = 1400.0;
  dag::TaskSpec s = compute("sigma", 0.0, 4);
  s.fixed_duration_seconds = 2784.9;
  const dag::TaskId eid = g.add_task(e);
  const dag::TaskId sid = g.add_task(s);
  g.add_dependency(eid, sid);
  const trace::WorkflowTrace t = sim::run_workflow(g, toy_machine());
  const PipelineReport r = pipeline_report(g, t);
  EXPECT_NEAR(r.critical_path_ratio, 1.0, 1e-6);
  EXPECT_NE(r.verdict.find("critical-path-limited"), std::string::npos);
}

}  // namespace
}  // namespace wfr::core

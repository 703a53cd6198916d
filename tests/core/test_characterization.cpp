#include "core/characterization.hpp"

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "sim/runner.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace wfr::core {
namespace {

using dag::TaskSpec;
using dag::WorkflowGraph;

TEST(Characterization, ThroughputFromMakespan) {
  WorkflowCharacterization c;
  c.total_tasks = 6;
  c.parallel_tasks = 5;
  c.makespan_seconds = 1020.0;  // LCLS good day: 17 min
  EXPECT_NEAR(c.throughput_tps(), 6.0 / 1020.0, 1e-12);
}

TEST(Characterization, TargetThroughput) {
  WorkflowCharacterization c;
  c.total_tasks = 6;
  c.parallel_tasks = 5;
  c.target_makespan_seconds = 600.0;  // the paper's 2020 target
  EXPECT_NEAR(c.target_throughput_tps(), 0.01, 1e-12);
  EXPECT_TRUE(c.has_target());
  EXPECT_FALSE(c.has_measurement());
}

TEST(Characterization, MissingMeasurementThrows) {
  WorkflowCharacterization c;
  EXPECT_THROW(c.throughput_tps(), util::InvalidArgument);
  EXPECT_THROW(c.target_throughput_tps(), util::InvalidArgument);
}

TEST(Characterization, ValidationCatchesInconsistencies) {
  WorkflowCharacterization c;
  c.total_tasks = 2;
  c.parallel_tasks = 5;  // more parallel than total
  EXPECT_THROW(c.validate(), util::InvalidArgument);
  c.parallel_tasks = 1;
  c.flops_per_node = -1.0;
  EXPECT_THROW(c.validate(), util::InvalidArgument);
}

TEST(Characterization, ValidationRejectsNonFiniteVolumes) {
  for (double WorkflowCharacterization::*field :
       {&WorkflowCharacterization::flops_per_node,
        &WorkflowCharacterization::network_bytes_per_task,
        &WorkflowCharacterization::fs_bytes_per_task,
        &WorkflowCharacterization::overhead_seconds_per_task}) {
    for (const double bad : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
      WorkflowCharacterization c;
      c.*field = bad;
      EXPECT_THROW(c.validate(), util::InvalidArgument);
    }
  }
}

TEST(Characterization, JsonRoundTrip) {
  WorkflowCharacterization c;
  c.name = "bgw";
  c.total_tasks = 2;
  c.parallel_tasks = 1;
  c.nodes_per_task = 64;
  c.flops_per_node = (1164e15 + 3226e15) / 64.0;
  c.network_bytes_per_task = 2676e9 * 64.0;
  c.fs_bytes_per_task = 35e9;
  c.makespan_seconds = 4184.86;
  c.target_makespan_seconds = -1.0;
  const WorkflowCharacterization back =
      WorkflowCharacterization::from_json(c.to_json());
  EXPECT_EQ(back.name, "bgw");
  EXPECT_EQ(back.nodes_per_task, 64);
  EXPECT_DOUBLE_EQ(back.flops_per_node, c.flops_per_node);
  EXPECT_DOUBLE_EQ(back.makespan_seconds, c.makespan_seconds);
  EXPECT_FALSE(back.has_target());
}

// A present makespan or target must be a real duration: a non-positive
// value is an error naming the field, never a silently absent one.
TEST(Characterization, FromJsonRejectsNonPositiveDurations) {
  for (const char* field : {"makespan_seconds", "target_makespan_seconds"}) {
    for (const double bad : {-3.0, 0.0, -1.0}) {
      util::JsonObject o;
      o.set("name", util::Json("w"));
      o.set("total_tasks", util::Json(2));
      o.set("parallel_tasks", util::Json(1));
      o.set(field, util::Json(bad));
      try {
        WorkflowCharacterization::from_json(util::Json(std::move(o)));
        ADD_FAILURE() << field << " = " << bad << " was accepted";
      } catch (const util::InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find(std::string(field) +
                                             " must be finite and > 0"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

// --- characterize_graph ---------------------------------------------------

WorkflowGraph lcls_like_graph() {
  TaskSpec analysis;
  analysis.name = "analysis";
  analysis.kind = "analysis";
  analysis.nodes = 32;
  analysis.demand.external_in_bytes = 1e12;
  analysis.demand.dram_bytes_per_node = 32e9;
  analysis.demand.fs_write_bytes = 1e9;
  TaskSpec merge;
  merge.name = "merge";
  merge.nodes = 1;
  merge.demand.fs_read_bytes = 5e9;
  return dag::make_fork_join("lcls", analysis, 5, merge);
}

TEST(CharacterizeGraph, LclsShape) {
  const WorkflowCharacterization c = characterize_graph(lcls_like_graph());
  EXPECT_EQ(c.total_tasks, 6);
  EXPECT_EQ(c.parallel_tasks, 5);
  EXPECT_EQ(c.nodes_per_task, 32);
  // Critical path = one analysis + merge; DRAM volume is the analysis's.
  EXPECT_DOUBLE_EQ(c.dram_bytes_per_node, 32e9);
  // External volume: 5 TB over 6 tasks.
  EXPECT_NEAR(c.external_bytes_per_task, 5e12 / 6.0, 1e-3);
  // FS: 5 x 1 GB writes + 5 GB read over 6 tasks.
  EXPECT_NEAR(c.fs_bytes_per_task, 10e9 / 6.0, 1e-3);
  EXPECT_FALSE(c.has_measurement());
}

TEST(CharacterizeGraph, ChainSumsNodeVolumesAlongPath) {
  TaskSpec stage;
  stage.name = "stage";
  stage.nodes = 64;
  stage.demand.flops_per_node = 10e15;
  WorkflowGraph g("bgw");
  const dag::TaskId first = g.add_task(stage);
  stage.name = "stage_1";
  g.add_dependency(first, g.add_task(stage));
  const WorkflowCharacterization c = characterize_graph(g);
  EXPECT_EQ(c.total_tasks, 2);
  EXPECT_EQ(c.parallel_tasks, 1);
  EXPECT_DOUBLE_EQ(c.flops_per_node, 20e15);  // both stages on the path
}

TEST(CharacterizeGraph, EmptyGraphThrows) {
  WorkflowGraph g("empty");
  EXPECT_THROW(characterize_graph(g), util::InvalidArgument);
}

// --- characterize_trace ---------------------------------------------------

TEST(CharacterizeTrace, FillsMeasurementAndConcurrency) {
  WorkflowGraph g = lcls_like_graph();
  sim::MachineConfig m;
  m.name = "toy";
  m.total_nodes = 200;
  m.node_flops = 1e12;
  m.dram_gbs = 129e9;
  m.nic_gbs = 10e9;
  m.fs_gbs = 910e9;
  m.external_gbs = 5e9;
  const trace::WorkflowTrace tr = sim::run_workflow(g, m);
  const WorkflowCharacterization c = characterize_trace(g, tr);
  EXPECT_TRUE(c.has_measurement());
  EXPECT_EQ(c.parallel_tasks, 5);
  EXPECT_GT(c.makespan_seconds, 0.0);
  // 5 concurrent 1 TB loads on a 5 GB/s link: ~1000 s.
  EXPECT_NEAR(c.makespan_seconds, 1000.0, 10.0);
}

TEST(CharacterizeTrace, RequiresCompleteTrace) {
  WorkflowGraph g = lcls_like_graph();
  trace::WorkflowTrace partial("lcls");
  EXPECT_THROW(characterize_trace(g, partial), util::InvalidArgument);
}

}  // namespace
}  // namespace wfr::core

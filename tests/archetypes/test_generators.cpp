#include "archetypes/generators.hpp"

#include <gtest/gtest.h>

#include "core/characterization.hpp"
#include "util/error.hpp"

namespace wfr::archetypes {
namespace {

TEST(Ensemble, IsFullyParallel) {
  const dag::WorkflowGraph g = ensemble(10);
  EXPECT_EQ(g.task_count(), 10u);
  EXPECT_EQ(g.level_count(), 1);
  EXPECT_EQ(g.max_parallel_tasks(), 10);
}

TEST(Ensemble, ScaleMultipliesVolumes) {
  ArchetypeParams big;
  big.scale = 4.0;
  const dag::WorkflowGraph small = ensemble(2);
  const dag::WorkflowGraph large = ensemble(2, big);
  EXPECT_DOUBLE_EQ(large.task(0).demand.flops_per_node,
                   4.0 * small.task(0).demand.flops_per_node);
  EXPECT_DOUBLE_EQ(large.task(0).demand.fs_write_bytes,
                   4.0 * small.task(0).demand.fs_write_bytes);
}

TEST(Pipeline, IsAChain) {
  const dag::WorkflowGraph g = pipeline(5);
  EXPECT_EQ(g.task_count(), 5u);
  EXPECT_EQ(g.level_count(), 5);
  EXPECT_EQ(g.max_parallel_tasks(), 1);
  // First stage ingests from outside; later stages read the filesystem.
  EXPECT_GT(g.task(0).demand.external_in_bytes, 0.0);
  EXPECT_DOUBLE_EQ(g.task(1).demand.external_in_bytes, 0.0);
  EXPECT_GT(g.task(1).demand.fs_read_bytes, 0.0);
  EXPECT_EQ(g.task(0).kind, "ingest");
  EXPECT_EQ(g.task(4).kind, "publish");
}

TEST(ForkJoin, MatchesLclsShape) {
  const dag::WorkflowGraph g = fork_join(5);
  EXPECT_EQ(g.task_count(), 6u);
  EXPECT_EQ(g.level_count(), 2);
  EXPECT_EQ(g.max_parallel_tasks(), 5);
  // Merge fan-in matches the width, and its read volume sums the outputs.
  const dag::TaskId merge = g.find_task("merge");
  EXPECT_EQ(g.predecessors(merge).size(), 5u);
  EXPECT_DOUBLE_EQ(g.task(merge).demand.fs_read_bytes,
                   5.0 * g.task(0).demand.fs_write_bytes);
}

TEST(MapReduce, RoundsChainThroughReducers) {
  const dag::WorkflowGraph g = map_reduce(4, 3);
  EXPECT_EQ(g.task_count(), 15u);  // (4 maps + 1 reduce) x 3
  EXPECT_EQ(g.level_count(), 6);   // map, reduce alternating
  EXPECT_EQ(g.max_parallel_tasks(), 4);
  // Round 1 maps depend on round 0's reduce.
  const dag::TaskId reduce0 = g.find_task("reduce_0");
  const dag::TaskId map10 = g.find_task("map_1_0");
  bool linked = false;
  for (dag::TaskId s : g.successors(reduce0)) linked = linked || s == map10;
  EXPECT_TRUE(linked);
}

TEST(SimulationInsitu, AnalysesShadowSimulationSteps) {
  const dag::WorkflowGraph g = simulation_insitu(4);
  EXPECT_EQ(g.task_count(), 9u);  // 4 sims + 4 analyses + viz
  // Analysis of step s depends only on sim_s: it can overlap sim_{s+1}.
  const dag::TaskId a0 = g.find_task("analysis_0");
  ASSERT_EQ(g.predecessors(a0).size(), 1u);
  EXPECT_EQ(g.predecessors(a0)[0], g.find_task("sim_0"));
  // The visualization gathers every analysis.
  const dag::TaskId viz = g.find_task("visualize");
  EXPECT_EQ(g.predecessors(viz).size(), 4u);
  // Concurrency: sim_{s+1} and analysis_s share a level.
  EXPECT_GE(g.max_parallel_tasks(), 2);
}

TEST(RandomDag, IsAcyclicAndSeeded) {
  RandomDagParams p;
  p.tasks = 50;
  p.seed = 7;
  const dag::WorkflowGraph a = random_dag(p);
  EXPECT_NO_THROW(a.validate());
  EXPECT_EQ(a.task_count(), 50u);
  const dag::WorkflowGraph b = random_dag(p);
  // Deterministic: same seed, same structure and demands.
  ASSERT_EQ(b.task_count(), a.task_count());
  for (dag::TaskId id = 0; id < a.task_count(); ++id) {
    EXPECT_EQ(a.task(id).nodes, b.task(id).nodes);
    EXPECT_DOUBLE_EQ(a.task(id).demand.flops_per_node,
                     b.task(id).demand.flops_per_node);
    EXPECT_EQ(a.predecessors(id).size(), b.predecessors(id).size());
  }
  p.seed = 8;
  const dag::WorkflowGraph c = random_dag(p);
  bool differs = false;
  for (dag::TaskId id = 0; id < a.task_count() && !differs; ++id)
    differs = a.task(id).demand.flops_per_node !=
              c.task(id).demand.flops_per_node;
  EXPECT_TRUE(differs);
}

TEST(Archetypes, AllCharacterizeCleanly) {
  for (const dag::WorkflowGraph& g :
       {ensemble(6), pipeline(4), fork_join(5), map_reduce(3, 2),
        simulation_insitu(3), random_dag({})}) {
    const core::WorkflowCharacterization c = core::characterize_graph(g);
    EXPECT_GE(c.parallel_tasks, 1);
    EXPECT_GE(c.total_tasks, c.parallel_tasks);
    EXPECT_NO_THROW(c.validate());
  }
}

TEST(Archetypes, Validation) {
  EXPECT_THROW(ensemble(0), util::InvalidArgument);
  EXPECT_THROW(pipeline(0), util::InvalidArgument);
  EXPECT_THROW(map_reduce(0, 1), util::InvalidArgument);
  ArchetypeParams bad;
  bad.scale = 0.0;
  EXPECT_THROW(ensemble(1, bad), util::InvalidArgument);
  RandomDagParams bad_dag;
  bad_dag.tasks = 0;
  EXPECT_THROW(random_dag(bad_dag), util::InvalidArgument);
}

}  // namespace
}  // namespace wfr::archetypes

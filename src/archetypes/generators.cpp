#include "archetypes/generators.hpp"

#include "math/rng.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace wfr::archetypes {

void ArchetypeParams::validate() const {
  util::require(scale > 0.0, "archetype scale must be > 0");
  util::require(nodes_per_task >= 1, "nodes_per_task must be >= 1");
}

namespace {

// Baseline volumes at scale 1.0 — a mid-weight HPC task.
dag::ResourceDemand compute_demand(double scale) {
  dag::ResourceDemand d;
  d.flops_per_node = 50.0 * util::kTFLOP * scale;
  d.dram_bytes_per_node = 100.0 * util::kGB * scale;
  return d;
}

}  // namespace

dag::WorkflowGraph ensemble(int tasks, const ArchetypeParams& params) {
  params.validate();
  util::require(tasks >= 1, "ensemble needs >= 1 task");
  dag::WorkflowGraph g("ensemble");
  for (int i = 0; i < tasks; ++i) {
    dag::TaskSpec t;
    t.name = util::format("member_%d", i);
    t.kind = "ensemble-member";
    t.nodes = params.nodes_per_task;
    t.demand = compute_demand(params.scale);
    t.demand.fs_write_bytes = 1.0 * util::kGB * params.scale;
    g.add_task(std::move(t));
  }
  return g;
}

dag::WorkflowGraph pipeline(int stages, const ArchetypeParams& params) {
  params.validate();
  util::require(stages >= 1, "pipeline needs >= 1 stage");
  dag::WorkflowGraph g("pipeline");
  dag::TaskId prev = dag::kInvalidTask;
  for (int i = 0; i < stages; ++i) {
    dag::TaskSpec t;
    t.name = util::format("stage_%d", i);
    t.kind = i == 0 ? "ingest" : (i + 1 == stages ? "publish" : "compute");
    t.nodes = params.nodes_per_task;
    t.demand = compute_demand(params.scale);
    if (i == 0) {
      t.demand.external_in_bytes = 100.0 * util::kGB * params.scale;
    } else {
      t.demand.fs_read_bytes = 20.0 * util::kGB * params.scale;
    }
    t.demand.fs_write_bytes = 20.0 * util::kGB * params.scale;
    const dag::TaskId id = g.add_task(std::move(t));
    if (prev != dag::kInvalidTask) g.add_dependency(prev, id);
    prev = id;
  }
  return g;
}

dag::WorkflowGraph fork_join(int width, const ArchetypeParams& params) {
  params.validate();
  util::require(width >= 1, "fork_join needs >= 1 branch");
  dag::TaskSpec analysis;
  analysis.name = "analysis";
  analysis.kind = "analysis";
  analysis.nodes = params.nodes_per_task;
  analysis.demand = compute_demand(params.scale);
  analysis.demand.external_in_bytes = 500.0 * util::kGB * params.scale;
  analysis.demand.fs_write_bytes = 1.0 * util::kGB * params.scale;
  dag::TaskSpec merge;
  merge.name = "merge";
  merge.kind = "merge";
  merge.nodes = 1;
  merge.demand.fs_read_bytes =
      1.0 * util::kGB * params.scale * static_cast<double>(width);
  merge.demand.flops_per_node = 1.0 * util::kTFLOP * params.scale;
  dag::WorkflowGraph g =
      dag::make_fork_join("fork-join", analysis, width, merge);
  return g;
}

dag::WorkflowGraph map_reduce(int mappers, int iterations,
                              const ArchetypeParams& params) {
  params.validate();
  util::require(mappers >= 1 && iterations >= 1,
                "map_reduce needs >= 1 mapper and iteration");
  dag::WorkflowGraph g("map-reduce");
  dag::TaskId previous_reduce = dag::kInvalidTask;
  for (int round = 0; round < iterations; ++round) {
    std::vector<dag::TaskId> round_maps;
    for (int m = 0; m < mappers; ++m) {
      dag::TaskSpec map_task;
      map_task.name = util::format("map_%d_%d", round, m);
      map_task.kind = "map";
      map_task.nodes = params.nodes_per_task;
      map_task.demand = compute_demand(params.scale);
      map_task.demand.fs_read_bytes = 10.0 * util::kGB * params.scale;
      map_task.demand.fs_write_bytes = 5.0 * util::kGB * params.scale;
      const dag::TaskId id = g.add_task(std::move(map_task));
      if (previous_reduce != dag::kInvalidTask)
        g.add_dependency(previous_reduce, id);
      round_maps.push_back(id);
    }
    dag::TaskSpec reduce_task;
    reduce_task.name = util::format("reduce_%d", round);
    reduce_task.kind = "reduce";
    reduce_task.nodes = 1;
    reduce_task.demand.fs_read_bytes =
        5.0 * util::kGB * params.scale * static_cast<double>(mappers);
    reduce_task.demand.fs_write_bytes = 10.0 * util::kGB * params.scale;
    reduce_task.demand.flops_per_node = 2.0 * util::kTFLOP * params.scale;
    const dag::TaskId reduce_id = g.add_task(std::move(reduce_task));
    for (dag::TaskId m : round_maps) g.add_dependency(m, reduce_id);
    previous_reduce = reduce_id;
  }
  return g;
}

dag::WorkflowGraph simulation_insitu(int steps,
                                     const ArchetypeParams& params) {
  params.validate();
  util::require(steps >= 1, "simulation_insitu needs >= 1 step");
  dag::WorkflowGraph g("sim-insitu");
  dag::TaskId prev_sim = dag::kInvalidTask;
  std::vector<dag::TaskId> analyses;
  for (int s = 0; s < steps; ++s) {
    dag::TaskSpec sim_task;
    sim_task.name = util::format("sim_%d", s);
    sim_task.kind = "simulation";
    sim_task.nodes = params.nodes_per_task;
    sim_task.demand = compute_demand(2.0 * params.scale);
    sim_task.demand.network_bytes = 50.0 * util::kGB * params.scale;
    sim_task.demand.fs_write_bytes = 10.0 * util::kGB * params.scale;
    const dag::TaskId sim_id = g.add_task(std::move(sim_task));
    if (prev_sim != dag::kInvalidTask) g.add_dependency(prev_sim, sim_id);

    dag::TaskSpec analysis;
    analysis.name = util::format("analysis_%d", s);
    analysis.kind = "in-situ-analysis";
    analysis.nodes = 1;
    analysis.demand.fs_read_bytes = 10.0 * util::kGB * params.scale;
    analysis.demand.flops_per_node = 5.0 * util::kTFLOP * params.scale;
    analysis.demand.fs_write_bytes = 0.5 * util::kGB * params.scale;
    const dag::TaskId a_id = g.add_task(std::move(analysis));
    g.add_dependency(sim_id, a_id);
    analyses.push_back(a_id);
    prev_sim = sim_id;
  }
  dag::TaskSpec viz;
  viz.name = "visualize";
  viz.kind = "visualization";
  viz.nodes = 1;
  viz.demand.fs_read_bytes =
      0.5 * util::kGB * params.scale * static_cast<double>(steps);
  viz.demand.flops_per_node = 1.0 * util::kTFLOP * params.scale;
  const dag::TaskId viz_id = g.add_task(std::move(viz));
  for (dag::TaskId a : analyses) g.add_dependency(a, viz_id);
  return g;
}

void RandomDagParams::validate() const {
  util::require(tasks >= 1, "random_dag needs >= 1 task");
  base.validate();
}

dag::WorkflowGraph random_dag(const RandomDagParams& params) {
  constexpr int kMaxNodesPerTask = 8;
  constexpr double kEdgeProbability = 0.15;
  params.validate();
  math::Rng rng(params.seed);
  dag::WorkflowGraph g("random-dag");
  for (int i = 0; i < params.tasks; ++i) {
    dag::TaskSpec t;
    t.name = util::format("task_%d", i);
    t.kind = "random";
    t.nodes = static_cast<int>(rng.uniform_int(1, kMaxNodesPerTask));
    const double s = params.base.scale;
    if (rng.bernoulli(0.85))
      t.demand.flops_per_node = rng.uniform(1.0, 100.0) * util::kTFLOP * s;
    if (rng.bernoulli(0.5))
      t.demand.dram_bytes_per_node = rng.uniform(1.0, 500.0) * util::kGB * s;
    if (rng.bernoulli(0.6))
      t.demand.fs_read_bytes = rng.uniform(0.1, 50.0) * util::kGB * s;
    if (rng.bernoulli(0.5))
      t.demand.fs_write_bytes = rng.uniform(0.1, 50.0) * util::kGB * s;
    if (rng.bernoulli(0.2))
      t.demand.external_in_bytes = rng.uniform(1.0, 500.0) * util::kGB * s;
    if (rng.bernoulli(0.3))
      t.demand.network_bytes = rng.uniform(1.0, 100.0) * util::kGB * s;
    if (rng.bernoulli(0.2))
      t.demand.overhead_seconds = rng.uniform(0.1, 10.0);
    const dag::TaskId id = g.add_task(std::move(t));
    for (dag::TaskId p = 0; p < id; ++p)
      if (rng.bernoulli(kEdgeProbability)) g.add_dependency(p, id);
  }
  return g;
}

}  // namespace wfr::archetypes

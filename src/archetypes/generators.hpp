#pragma once
// Workflow archetype generators, following the NERSC-10 workflow
// archetypes the paper's introduction surveys: task ensembles, pipelines,
// fork-joins with ensembles, iterated map-reduce chains, and
// simulation + in-situ analysis couples — plus a seeded random-DAG
// generator for stress and property testing.
//
// Every generator returns a dag::WorkflowGraph with plausible demand
// volumes scaled by a single `scale` knob, so the same archetype can be
// sized from laptop-demo to machine-filling.

#include <cstdint>

#include "dag/graph.hpp"

namespace wfr::archetypes {

/// Common sizing for the generators.
struct ArchetypeParams {
  /// Multiplies every data volume and flop count (1.0 = the defaults
  /// documented per generator).
  double scale = 1.0;
  /// Nodes per heavyweight task.
  int nodes_per_task = 8;

  void validate() const;
};

/// N independent tasks ("task ensemble" / bag of tasks): parameter sweeps,
/// Monte-Carlo batches.  Each task computes and writes a result file.
dag::WorkflowGraph ensemble(int tasks, const ArchetypeParams& params = {});

/// A linear pipeline: ingest -> stages of compute -> publish.  Each stage
/// consumes its predecessor's filesystem output.
dag::WorkflowGraph pipeline(int stages, const ArchetypeParams& params = {});

/// The LCLS-style fork-join: `width` parallel analyses over external data
/// feeding one merge.
dag::WorkflowGraph fork_join(int width, const ArchetypeParams& params = {});

/// Iterated map-reduce: `iterations` rounds of `mappers` parallel map
/// tasks feeding a reduce task that seeds the next round (Pregel-style
/// chained MapReduce from the paper's related work).
dag::WorkflowGraph map_reduce(int mappers, int iterations,
                              const ArchetypeParams& params = {});

/// Simulation with in-situ analysis: `steps` simulation stages, each
/// shadowed by an analysis task that consumes its output while the next
/// step runs; a final visualization gathers everything.
dag::WorkflowGraph simulation_insitu(int steps,
                                     const ArchetypeParams& params = {});

/// Options for the random DAG generator.
struct RandomDagParams {
  int tasks = 20;
  std::uint64_t seed = 0;
  ArchetypeParams base;

  void validate() const;
};

/// A seeded random DAG with randomized demands on every channel; always
/// acyclic by construction (edges point from lower to higher ids).  Each
/// task takes 1 to 8 nodes and depends on each earlier task with
/// probability 0.15.
dag::WorkflowGraph random_dag(const RandomDagParams& params = {});

}  // namespace wfr::archetypes

#pragma once
// Workflow characterization for the Workflow Roofline model (paper Section
// III-B): the lightweight metrics — task counts, per-node volumes along the
// critical path, per-task system volumes, measured makespan, and targets —
// from which ceilings and dots are built.

#include <string>

#include "dag/graph.hpp"
#include "trace/timeline.hpp"
#include "util/json.hpp"

namespace wfr::core {

/// Characterization of one workflow execution (or plan).
///
/// Volume conventions (matching the paper's inputs):
///   * Node-level volumes (`*_per_node`) are per node, summed over the
///     tasks on the workflow's critical path — e.g. BGW at 64 nodes has
///     flops_per_node = (1164 + 3226) PFLOP / 64.
///   * `network_bytes_per_task` is the MPI volume driven through one
///     parallel slot, summed over the tasks on the critical path; its
///     ceiling uses the task's aggregate NIC bandwidth
///     (nodes_per_task x nic_gbs).
///   * System-level volumes (`fs_bytes_per_task`, `external_bytes_per_task`)
///     are per task, so the resulting shared-system ceilings are horizontal
///     (total volume = per-task volume x tasks; the parallel-task count
///     cancels out of Eq. 1).
struct WorkflowCharacterization {
  std::string name = "workflow";

  // --- Task structure --------------------------------------------------------
  int total_tasks = 1;
  /// The paper's x-axis: number of tasks that can execute concurrently.
  int parallel_tasks = 1;
  int nodes_per_task = 1;

  // --- Node-level volumes (per node, critical-path sum) ---------------------
  double flops_per_node = 0.0;
  double dram_bytes_per_node = 0.0;
  double hbm_bytes_per_node = 0.0;
  double pcie_bytes_per_node = 0.0;

  // --- Per-task volumes -------------------------------------------------------
  double network_bytes_per_task = 0.0;
  double fs_bytes_per_task = 0.0;
  double external_bytes_per_task = 0.0;

  // --- Fixed serial overhead per task (control flow; GPTune's diagonal) ----
  double overhead_seconds_per_task = 0.0;

  // --- Measurements and targets (negative = absent) ---------------------------
  double makespan_seconds = -1.0;
  double target_makespan_seconds = -1.0;

  /// Measured throughput in tasks/second (total_tasks / makespan).
  /// Throws when no makespan was recorded.
  double throughput_tps() const;

  /// Target throughput (total_tasks / target makespan); throws when no
  /// target was set.
  double target_throughput_tps() const;

  bool has_measurement() const { return makespan_seconds >= 0.0; }
  bool has_target() const { return target_makespan_seconds >= 0.0; }

  /// Validates invariants; throws InvalidArgument on violation.
  void validate() const;

  /// JSON round-trip (the CLI's --workflow characterization files).
  /// from_json rejects a present makespan_seconds or
  /// target_makespan_seconds that is not finite and > 0.
  util::Json to_json() const;
  static WorkflowCharacterization from_json(const util::Json& json);
};

/// Derives a characterization from a workflow graph (structure + demands)
/// without executing it:
///   * parallel_tasks from the widest level;
///   * nodes_per_task from the largest task;
///   * node volumes summed per node along the unit-weight critical path;
///   * system volumes as totals divided by total task count.
WorkflowCharacterization characterize_graph(const dag::WorkflowGraph& graph);

/// Derives a characterization from an executed trace plus its graph:
/// like characterize_graph, but the critical path uses measured durations,
/// parallel_tasks uses the observed peak concurrency, and the measured
/// makespan is filled in.
WorkflowCharacterization characterize_trace(const dag::WorkflowGraph& graph,
                                            const trace::WorkflowTrace& trace);

}  // namespace wfr::core

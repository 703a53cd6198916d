#pragma once
// The task view of the Workflow Roofline (paper Fig. 7c): one dot per task
// (or per task-and-scale variant) with its own node ceiling, used to spot
// which task dominates the makespan and which has node-efficiency headroom.

#include <string>
#include <vector>

#include "core/system_spec.hpp"
#include "dag/graph.hpp"
#include "trace/timeline.hpp"

namespace wfr::core {

/// One task's entry in the task view.
struct TaskViewEntry {
  std::string label;   // e.g. "Epsilon @ 64 nodes"
  std::string group;   // grouping key for renderers (color families)
  int nodes = 1;
  /// Node-ceiling time for this task (its per-node dominant-channel time).
  double ceiling_seconds = 0.0;
  /// Measured wall-clock time.
  double measured_seconds = 0.0;
  /// Level of the task in the DAG (the future-work per-level annotation).
  int level = 0;

  /// Throughput of this task alone (1 / measured time).
  double tps() const;
  /// The task's own node ceiling in tasks/s at P=1.
  double ceiling_tps() const;
  /// ceiling_seconds / measured_seconds: fraction of node peak achieved.
  double efficiency() const;
};

/// A collection of task-view entries with the queries Fig. 7c supports.
class TaskView {
 public:
  void add(TaskViewEntry entry);

  const std::vector<TaskViewEntry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

  /// The task that dominates the makespan (largest measured time, i.e. the
  /// lowest dot).  Throws when empty.
  const TaskViewEntry& dominant() const;

  /// The task farthest from its node ceiling (lowest efficiency): the best
  /// node-tuning candidate.  Throws when empty.
  const TaskViewEntry& least_efficient() const;

  /// Human-readable table.
  std::string report() const;

 private:
  std::vector<TaskViewEntry> entries_;
};

/// Builds a task view from an executed trace: ceiling times come from each
/// task's demands against `system`'s node peaks (dominant channel), and
/// measured times come from the trace.  Tasks with zero node demand get a
/// zero ceiling (their efficiency is reported as 0).
TaskView task_view_from_trace(const dag::WorkflowGraph& graph,
                              const trace::WorkflowTrace& trace,
                              const SystemSpec& system);

}  // namespace wfr::core

#pragma once
// Workflow task graph (DAG) with the structural queries the Workflow
// Roofline model needs: levels, level widths (parallel task counts),
// critical path, and concurrency profile.

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dag/task.hpp"

namespace wfr::dag {

/// Result of a critical-path query.
struct CriticalPath {
  /// Task ids on the path, in execution order.
  std::vector<TaskId> tasks;
  /// Sum of the durations of the tasks on the path.
  double length_seconds = 0.0;
};

/// A directed acyclic graph of workflow tasks.
///
/// Edges run from a producer task to its dependent consumer.  Validation is
/// lazy: structural mutators are cheap, and analysis entry points call
/// validate() (cycle detection) on first use after a mutation.
class WorkflowGraph {
 public:
  WorkflowGraph() = default;
  explicit WorkflowGraph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a task and returns its id.  Throws when `spec` is invalid or a
  /// task with the same name already exists.
  TaskId add_task(TaskSpec spec);

  /// Declares that `consumer` cannot start until `producer` finishes.
  /// Duplicate edges are ignored.  Throws on self-edges / unknown ids.
  void add_dependency(TaskId producer, TaskId consumer);

  std::size_t task_count() const { return tasks_.size(); }

  const TaskSpec& task(TaskId id) const;
  TaskSpec& task(TaskId id);

  /// Looks up a task by name; throws NotFound when absent.
  TaskId find_task(std::string_view name) const;
  /// Looks up a task by name; returns kInvalidTask when absent.
  TaskId find_task_or_invalid(std::string_view name) const;

  /// Direct successors / predecessors of `id`.
  std::span<const TaskId> successors(TaskId id) const;
  std::span<const TaskId> predecessors(TaskId id) const;

  /// Throws InvalidArgument when the graph contains a cycle.
  void validate() const;

  /// Task ids in a topological order (stable w.r.t. insertion order).
  /// Throws InvalidArgument when the graph contains a cycle.  Each
  /// structural query below sorts once.
  std::vector<TaskId> topological_order() const;

  /// Level of each task: sources are level 0, and each task's level is
  /// 1 + max(level of predecessors).  This matches the paper's "level"
  /// notion in the LCLS skeleton (Fig. 4).
  std::vector<int> levels() const;

  /// Number of levels (0 for an empty graph).  The paper calls this the
  /// critical path *length* in tasks when all durations are equal.
  int level_count() const;

  /// Number of tasks at each level.
  std::vector<int> level_widths() const;

  /// Maximum level width: the paper's "number of parallel tasks" for a
  /// workflow whose tasks at a level are mutually independent.
  int max_parallel_tasks() const;

  /// Critical path with per-task `durations` (seconds, one per task).
  /// When `durations` is empty, each task counts 1 (path length in tasks).
  CriticalPath critical_path(std::span<const double> durations = {}) const;

  /// Sum of demands over all tasks (system-level totals; node-level fields
  /// sum the per-node volumes which is only meaningful for uniform tasks).
  ResourceDemand total_demand() const;

 private:
  std::string name_;
  std::vector<TaskSpec> tasks_;
  std::vector<std::vector<TaskId>> successors_;
  std::vector<std::vector<TaskId>> predecessors_;

  void check_id(TaskId id) const;
};

/// Builds a fork-join graph: `width` independent tasks from the template
/// `parallel_task`, all feeding one `join_task`.  Used for LCLS-style
/// skeletons and tests.
WorkflowGraph make_fork_join(std::string name, const TaskSpec& parallel_task,
                             int width, const TaskSpec& join_task);

}  // namespace wfr::dag

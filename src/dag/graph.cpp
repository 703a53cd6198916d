#include "dag/graph.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace wfr::dag {

TaskId WorkflowGraph::add_task(TaskSpec spec) {
  spec.validate();
  util::require(find_task_or_invalid(spec.name) == kInvalidTask,
                "duplicate task name '%s'", spec.name.c_str());
  const auto id = static_cast<TaskId>(tasks_.size());
  tasks_.push_back(std::move(spec));
  successors_.emplace_back();
  predecessors_.emplace_back();
  return id;
}

void WorkflowGraph::add_dependency(TaskId producer, TaskId consumer) {
  check_id(producer);
  check_id(consumer);
  util::require(producer != consumer, "self-dependency on task '%s'",
                tasks_[producer].name.c_str());
  auto& succ = successors_[producer];
  if (std::find(succ.begin(), succ.end(), consumer) != succ.end()) return;
  succ.push_back(consumer);
  predecessors_[consumer].push_back(producer);
}

const TaskSpec& WorkflowGraph::task(TaskId id) const {
  check_id(id);
  return tasks_[id];
}

TaskSpec& WorkflowGraph::task(TaskId id) {
  check_id(id);
  return tasks_[id];
}

TaskId WorkflowGraph::find_task(std::string_view name) const {
  const TaskId id = find_task_or_invalid(name);
  if (id == kInvalidTask)
    throw util::NotFound("no task named '" + std::string(name) + "'");
  return id;
}

TaskId WorkflowGraph::find_task_or_invalid(std::string_view name) const {
  for (std::size_t i = 0; i < tasks_.size(); ++i)
    if (tasks_[i].name == name) return static_cast<TaskId>(i);
  return kInvalidTask;
}

std::span<const TaskId> WorkflowGraph::successors(TaskId id) const {
  check_id(id);
  return successors_[id];
}

std::span<const TaskId> WorkflowGraph::predecessors(TaskId id) const {
  check_id(id);
  return predecessors_[id];
}

void WorkflowGraph::validate() const { topological_order(); }

std::vector<TaskId> WorkflowGraph::topological_order() const {
  // Kahn's algorithm with the output vector as its FIFO: a task is
  // appended when its last predecessor is visited, and tasks are visited
  // in append order, so simultaneously-ready tasks keep insertion order
  // (stable and test-friendly).  Tasks on a cycle never become ready.
  std::vector<int> in_degree(tasks_.size(), 0);
  std::vector<TaskId> order;
  order.reserve(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    in_degree[i] = static_cast<int>(predecessors_[i].size());
    if (in_degree[i] == 0) order.push_back(static_cast<TaskId>(i));
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (TaskId next : successors_[order[head]])
      if (--in_degree[next] == 0) order.push_back(next);
  }
  if (order.size() != tasks_.size())
    throw util::InvalidArgument("workflow graph '" + name_ +
                                "' contains a cycle");
  return order;
}

std::vector<int> WorkflowGraph::levels() const {
  std::vector<int> level(tasks_.size(), 0);
  for (TaskId id : topological_order()) {
    for (TaskId pred : predecessors_[id])
      level[id] = std::max(level[id], level[pred] + 1);
  }
  return level;
}

int WorkflowGraph::level_count() const {
  return static_cast<int>(level_widths().size());
}

std::vector<int> WorkflowGraph::level_widths() const {
  // Levels are dense: a task at level L > 0 has a predecessor at L - 1.
  std::vector<int> widths;
  for (int l : levels()) {
    const auto index = static_cast<std::size_t>(l);
    if (index >= widths.size()) widths.resize(index + 1, 0);
    ++widths[index];
  }
  return widths;
}

int WorkflowGraph::max_parallel_tasks() const {
  const std::vector<int> widths = level_widths();
  return widths.empty() ? 0 : *std::max_element(widths.begin(), widths.end());
}

CriticalPath WorkflowGraph::critical_path(
    std::span<const double> durations) const {
  CriticalPath result;
  if (tasks_.empty()) return result;
  const std::vector<TaskId> order = topological_order();
  util::require(durations.empty() || durations.size() == tasks_.size(),
                "critical_path durations must match task count");
  auto duration = [&](TaskId id) {
    return durations.empty() ? 1.0 : durations[id];
  };

  std::vector<double> finish(tasks_.size(), 0.0);
  std::vector<TaskId> best_pred(tasks_.size(), kInvalidTask);
  for (TaskId id : order) {
    double start = 0.0;
    for (TaskId pred : predecessors_[id]) {
      if (finish[pred] > start) {
        start = finish[pred];
        best_pred[id] = pred;
      }
    }
    finish[id] = start + duration(id);
  }

  TaskId tail = 0;
  for (std::size_t i = 1; i < tasks_.size(); ++i)
    if (finish[i] > finish[tail]) tail = static_cast<TaskId>(i);

  result.length_seconds = finish[tail];
  for (TaskId id = tail; id != kInvalidTask; id = best_pred[id])
    result.tasks.push_back(id);
  std::reverse(result.tasks.begin(), result.tasks.end());
  return result;
}

ResourceDemand WorkflowGraph::total_demand() const {
  ResourceDemand total;
  for (const TaskSpec& t : tasks_) total = total + t.demand;
  return total;
}

void WorkflowGraph::check_id(TaskId id) const {
  if (id >= tasks_.size())
    throw util::NotFound(util::format("task id %u out of range (%zu tasks)",
                                      id, tasks_.size()));
}

WorkflowGraph make_fork_join(std::string name, const TaskSpec& parallel_task,
                             int width, const TaskSpec& join_task) {
  util::require(width >= 1, "make_fork_join width must be >= 1");
  WorkflowGraph g(std::move(name));
  std::vector<TaskId> branch_ids;
  branch_ids.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    TaskSpec spec = parallel_task;
    spec.name = util::format("%s_%d", parallel_task.name.c_str(), i);
    branch_ids.push_back(g.add_task(std::move(spec)));
  }
  const TaskId join = g.add_task(join_task);
  for (TaskId b : branch_ids) g.add_dependency(b, join);
  return g;
}

}  // namespace wfr::dag

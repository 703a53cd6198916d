#include "dag/schedule.hpp"

#include <algorithm>
#include <queue>

#include "util/error.hpp"

namespace wfr::dag {

double Schedule::node_utilization(int pool_nodes) const {
  if (makespan_seconds <= 0.0 || pool_nodes <= 0) return 0.0;
  double node_seconds = 0.0;
  for (const ScheduledTask& t : entries)
    node_seconds += t.duration() * static_cast<double>(t.nodes);
  return node_seconds / (makespan_seconds * static_cast<double>(pool_nodes));
}

std::vector<ScheduledTask> Schedule::sorted_by_start() const {
  std::vector<ScheduledTask> out = entries;
  std::sort(out.begin(), out.end(),
            [](const ScheduledTask& a, const ScheduledTask& b) {
              if (a.start_seconds != b.start_seconds)
                return a.start_seconds < b.start_seconds;
              return a.task < b.task;
            });
  return out;
}

namespace {

/// Tracks which nodes of the pool are free and hands out allocations.
class NodePool {
 public:
  explicit NodePool(int size) : free_(static_cast<std::size_t>(size), true) {}

  int free_count() const {
    return static_cast<int>(std::count(free_.begin(), free_.end(), true));
  }

  /// Allocates `count` nodes, preferring the lowest-indexed contiguous run;
  /// falls back to the lowest free nodes when fragmented.  Returns the
  /// first node index.  Requires free_count() >= count.
  int allocate(int count, std::vector<int>* taken) {
    taken->clear();
    // First-fit contiguous.
    int run = 0;
    for (std::size_t i = 0; i < free_.size(); ++i) {
      run = free_[i] ? run + 1 : 0;
      if (run == count) {
        const std::size_t start = i + 1 - static_cast<std::size_t>(count);
        for (std::size_t j = start; j <= i; ++j) {
          free_[j] = false;
          taken->push_back(static_cast<int>(j));
        }
        return static_cast<int>(start);
      }
    }
    // Fragmented: take the lowest free nodes.
    for (std::size_t i = 0; i < free_.size() && static_cast<int>(taken->size()) < count; ++i) {
      if (free_[i]) {
        free_[i] = false;
        taken->push_back(static_cast<int>(i));
      }
    }
    util::ensure(static_cast<int>(taken->size()) == count,
                 "NodePool::allocate called without enough free nodes");
    return taken->front();
  }

  void release(const std::vector<int>& nodes) {
    for (int n : nodes) free_[static_cast<std::size_t>(n)] = true;
  }

 private:
  std::vector<bool> free_;
};

struct RunningTask {
  double end = 0.0;
  TaskId task = kInvalidTask;
  bool operator>(const RunningTask& other) const { return end > other.end; }
};

}  // namespace

Schedule schedule_workflow(const WorkflowGraph& graph,
                           std::span<const double> durations,
                           const ScheduleOptions& options) {
  graph.validate();
  util::require(durations.size() == graph.task_count(),
                "schedule_workflow durations must match task count");
  util::require(options.pool_nodes >= 1, "pool_nodes must be >= 1");
  for (std::size_t i = 0; i < durations.size(); ++i) {
    util::require(durations[i] >= 0.0, "task durations must be >= 0");
    const TaskSpec& task = graph.task(static_cast<TaskId>(i));
    util::require(task.nodes <= options.pool_nodes,
                  "task '%s' needs %d nodes but the pool has %d",
                  task.name.c_str(), task.nodes, options.pool_nodes);
  }

  Schedule schedule;
  schedule.entries.resize(graph.task_count());
  if (graph.task_count() == 0) return schedule;

  std::vector<int> waiting_deps(graph.task_count());
  for (std::size_t i = 0; i < graph.task_count(); ++i)
    waiting_deps[i] =
        static_cast<int>(graph.predecessors(static_cast<TaskId>(i)).size());

  std::vector<TaskId> ready;
  for (std::size_t i = 0; i < graph.task_count(); ++i)
    if (waiting_deps[i] == 0) ready.push_back(static_cast<TaskId>(i));

  auto order_ready = [&] {
    if (options.longest_task_first) {
      std::stable_sort(ready.begin(), ready.end(), [&](TaskId a, TaskId b) {
        return durations[a] > durations[b];
      });
    }
  };
  order_ready();

  NodePool pool(options.pool_nodes);
  std::priority_queue<RunningTask, std::vector<RunningTask>,
                      std::greater<RunningTask>>
      running;
  std::vector<std::vector<int>> allocation(graph.task_count());
  double now = 0.0;
  std::size_t started = 0;
  int tasks_running = 0;

  while (started < graph.task_count() || !running.empty()) {
    // Start every ready task that fits, in priority order.
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t r = 0; r < ready.size(); ++r) {
        const TaskId id = ready[r];
        const int need = graph.task(id).nodes;
        if (pool.free_count() < need) continue;
        const int first = pool.allocate(need, &allocation[id]);
        ScheduledTask& entry = schedule.entries[id];
        entry.task = id;
        entry.start_seconds = now;
        entry.end_seconds = now + durations[id];
        entry.first_node = first;
        entry.nodes = need;
        running.push(RunningTask{entry.end_seconds, id});
        ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(r));
        ++started;
        ++tasks_running;
        schedule.peak_concurrent_tasks =
            std::max(schedule.peak_concurrent_tasks, tasks_running);
        schedule.peak_nodes_used = std::max(
            schedule.peak_nodes_used, options.pool_nodes - pool.free_count());
        progressed = true;
        break;  // re-scan: the ready list may be ordered and pool changed
      }
    }

    if (running.empty()) {
      util::ensure(started == graph.task_count(),
                   "scheduler stalled with unstarted tasks");
      break;
    }

    // Advance to the earliest completion; release everything ending then.
    now = running.top().end;
    while (!running.empty() && running.top().end <= now) {
      const TaskId done = running.top().task;
      running.pop();
      --tasks_running;
      pool.release(allocation[done]);
      allocation[done].clear();
      for (TaskId next : graph.successors(done)) {
        if (--waiting_deps[next] == 0) ready.push_back(next);
      }
    }
    order_ready();
    schedule.makespan_seconds = std::max(schedule.makespan_seconds, now);
  }

  return schedule;
}

}  // namespace wfr::dag

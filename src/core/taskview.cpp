#include "core/taskview.hpp"

#include <algorithm>

#include "sim/runner.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace wfr::core {

double TaskViewEntry::tps() const {
  util::require(measured_seconds > 0.0,
                "task view entry '%s' has no measured time", label.c_str());
  return 1.0 / measured_seconds;
}

double TaskViewEntry::ceiling_tps() const {
  util::require(ceiling_seconds > 0.0,
                "task view entry '%s' has no node ceiling", label.c_str());
  return 1.0 / ceiling_seconds;
}

double TaskViewEntry::efficiency() const {
  if (measured_seconds <= 0.0) return 0.0;
  return ceiling_seconds / measured_seconds;
}

void TaskView::add(TaskViewEntry entry) {
  util::require(!entry.label.empty(), "task view entry needs a label");
  util::require(entry.measured_seconds >= 0.0 && entry.ceiling_seconds >= 0.0,
                "task view times must be >= 0");
  entries_.push_back(std::move(entry));
}

const TaskViewEntry& TaskView::dominant() const {
  util::require(!entries_.empty(), "task view is empty");
  return *std::max_element(entries_.begin(), entries_.end(),
                           [](const TaskViewEntry& a, const TaskViewEntry& b) {
                             return a.measured_seconds < b.measured_seconds;
                           });
}

const TaskViewEntry& TaskView::least_efficient() const {
  util::require(!entries_.empty(), "task view is empty");
  return *std::min_element(entries_.begin(), entries_.end(),
                           [](const TaskViewEntry& a, const TaskViewEntry& b) {
                             return a.efficiency() < b.efficiency();
                           });
}

std::string TaskView::report() const {
  std::string out = "task view (lower dot = longer makespan):\n";
  for (const TaskViewEntry& e : entries_) {
    out += util::format(
        "  %-28s level=%d nodes=%-5d measured=%-10s ceiling=%-10s "
        "efficiency=%.0f%%\n",
        e.label.c_str(), e.level, e.nodes,
        util::format_seconds(e.measured_seconds).c_str(),
        util::format_seconds(e.ceiling_seconds).c_str(),
        100.0 * e.efficiency());
  }
  return out;
}

TaskView task_view_from_trace(const dag::WorkflowGraph& graph,
                              const trace::WorkflowTrace& trace,
                              const SystemSpec& system) {
  TaskView view;
  const sim::MachineConfig machine = system.to_machine();
  const std::vector<int> levels = graph.levels();
  for (const trace::TaskRecord& r : trace.records()) {
    util::require(r.task < graph.task_count(),
                  "trace record references an unknown task id");
    const dag::TaskSpec& spec = graph.task(r.task);
    TaskViewEntry e;
    e.label = util::format("%s @ %d nodes", r.name.c_str(), r.nodes);
    e.group = spec.kind.empty() ? r.name : spec.kind;
    e.nodes = r.nodes;
    e.level = levels[r.task];
    e.ceiling_seconds = sim::work_phase_seconds(spec, machine);
    e.measured_seconds = r.duration();
    view.add(std::move(e));
  }
  return view;
}

}  // namespace wfr::core

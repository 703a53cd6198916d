#include "core/advisor.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace wfr::core {

std::string Advice::to_string() const {
  std::string out = headline + "\n";
  for (const std::string& s : suggestions) out += "  - " + s + "\n";
  return out;
}

Advice advise(const RooflineModel& model, const Dot& dot) {
  Advice advice;
  advice.bound = model.classify(dot);
  advice.efficiency = model.efficiency(dot);
  advice.headroom = advice.efficiency > 0.0 ? 1.0 / advice.efficiency : 0.0;
  if (model.has_targets()) advice.zone = model.zone_of(dot);

  const int wall = model.parallelism_wall();
  const double tps_here = model.attainable_tps(dot.parallel_tasks);
  const double tps_at_wall = model.attainable_tps(static_cast<double>(wall));
  advice.parallelism_headroom =
      tps_here > 0.0 ? tps_at_wall / tps_here : 0.0;

  const Ceiling& binding = model.binding_ceiling(dot.parallel_tasks);

  advice.headline = util::format(
      "'%s' is %s: %.0f%% of the attainable throughput at P=%g; binding "
      "ceiling: %s",
      dot.label.c_str(), bound_class_name(advice.bound),
      100.0 * advice.efficiency, dot.parallel_tasks, binding.label.c_str());

  switch (advice.bound) {
    case BoundClass::kNodeBound:
      advice.suggestions.push_back(util::format(
          "improve node efficiency (up to %.1fx shorter makespan moves the "
          "dot straight up)",
          advice.headroom));
      if (dot.parallel_tasks < wall)
        advice.suggestions.push_back(util::format(
            "raise task parallelism toward the wall at %d for up to %.1fx "
            "higher throughput (dot moves diagonally up-right)",
            wall, advice.parallelism_headroom));
      advice.suggestions.push_back(
          "apply the traditional node-level Roofline next: the bottleneck "
          "is inside the node, not the system");
      break;
    case BoundClass::kSystemBound:
      advice.suggestions.push_back(util::format(
          "the %s channel bounds throughput; faster compute would not "
          "help — work on bandwidth QOS or reduce the data volume",
          channel_name(binding.channel)));
      if (binding.channel == Channel::kExternal)
        advice.suggestions.push_back(
            "contention on the external link lowers this ceiling "
            "day-to-day; end-to-end QOS stabilizes it");
      else
        advice.suggestions.push_back(
            "restructure I/O (fewer, larger, or in-memory transfers) to "
            "shrink the per-task system volume");
      break;
    case BoundClass::kParallelismBound:
      advice.suggestions.push_back(
          "out of task parallelism: shrink nodes-per-task to push the wall "
          "right (if per-task makespan stays acceptable)");
      advice.suggestions.push_back(
          "or accept the wall and optimize per-task time instead");
      break;
    case BoundClass::kControlFlowBound:
      advice.suggestions.push_back(util::format(
          "serial control-flow overhead dominates (%s per task); avoid "
          "per-iteration process launches (e.g. spawn once, keep metadata "
          "in memory, use containers to cut interpreter start-up)",
          util::format_seconds(binding.seconds_per_task).c_str()));
      break;
  }

  if (advice.zone.has_value()) {
    switch (*advice.zone) {
      case Zone::kGoodMakespanGoodThroughput:
        advice.suggestions.push_back("both targets are met");
        break;
      case Zone::kGoodMakespanPoorThroughput:
        advice.suggestions.push_back(
            "makespan target met but throughput short: either keep "
            "shortening the makespan (up) or add parallel tasks "
            "(up-right)");
        break;
      case Zone::kPoorMakespanGoodThroughput:
        advice.suggestions.push_back(
            "throughput target met but makespan too long: shift to more "
            "intra-task parallelism (wall moves left, node ceiling up)");
        break;
      case Zone::kPoorMakespanPoorThroughput:
        advice.suggestions.push_back(
            "both targets missed: check whether the targets are attainable "
            "at all under the current ceilings");
        break;
    }
  }
  return advice;
}

Advice advise(const RooflineModel& model) {
  util::require(!model.dots().empty(), "model has no dots to advise on");
  return advise(model, model.dots().front());
}

WorkflowCharacterization scale_intra_task_parallelism(
    const WorkflowCharacterization& workflow, double factor,
    double scaling_efficiency) {
  util::require(factor > 0.0, "scaling factor must be > 0");
  util::require(scaling_efficiency > 0.0 && scaling_efficiency <= 1.0,
                "scaling efficiency must be in (0, 1]");
  WorkflowCharacterization out = workflow;

  const double scaled_nodes = workflow.nodes_per_task * factor;
  const double rounded = std::nearbyint(scaled_nodes);
  util::require(rounded >= 1.0 && std::fabs(scaled_nodes - rounded) < 1e-9,
                "factor %g does not yield a whole node count from %d "
                "nodes/task",
                factor, workflow.nodes_per_task);
  out.nodes_per_task = static_cast<int>(rounded);

  const double volume_scale = 1.0 / (factor * scaling_efficiency);
  out.flops_per_node *= volume_scale;
  out.dram_bytes_per_node *= volume_scale;
  out.hbm_bytes_per_node *= volume_scale;
  out.pcie_bytes_per_node *= volume_scale;
  // Per-task totals (network, fs, external, overhead) are unchanged; the
  // network ceiling still moves because the aggregate NIC count changes.

  out.parallel_tasks = std::max(
      1, static_cast<int>(std::floor(workflow.parallel_tasks / factor)));
  // Preserve the tasks-per-slot ratio: each slot still traverses the same
  // task chain, so the projected workflow covers parallel_tasks x chain
  // tasks per wave.  Without this, the diagonal ceilings would claim more
  // task throughput than the machine peak allows.
  const double tasks_per_slot =
      static_cast<double>(workflow.total_tasks) /
      static_cast<double>(workflow.parallel_tasks);
  out.total_tasks = std::max(
      out.parallel_tasks,
      static_cast<int>(std::nearbyint(out.parallel_tasks * tasks_per_slot)));
  out.makespan_seconds = -1.0;  // projection, not a measurement
  out.validate();
  return out;
}

}  // namespace wfr::core

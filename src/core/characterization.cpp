#include "core/characterization.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace wfr::core {

double WorkflowCharacterization::throughput_tps() const {
  util::require(has_measurement(), "workflow '%s' has no measured makespan",
                name.c_str());
  util::require(makespan_seconds > 0.0, "measured makespan must be > 0");
  return static_cast<double>(total_tasks) / makespan_seconds;
}

double WorkflowCharacterization::target_throughput_tps() const {
  util::require(has_target(), "workflow '%s' has no target", name.c_str());
  util::require(target_makespan_seconds > 0.0, "target makespan must be > 0");
  return static_cast<double>(total_tasks) / target_makespan_seconds;
}

void WorkflowCharacterization::validate() const {
  util::require(total_tasks >= 1, "total_tasks must be >= 1");
  util::require(parallel_tasks >= 1, "parallel_tasks must be >= 1");
  util::require(parallel_tasks <= total_tasks,
                "parallel_tasks cannot exceed total_tasks");
  util::require(nodes_per_task >= 1, "nodes_per_task must be >= 1");
  auto non_negative = [this](double v, const char* field) {
    util::require(v >= 0.0 && std::isfinite(v),
                  "workflow '%s': %s must be finite and >= 0", name.c_str(),
                  field);
  };
  non_negative(flops_per_node, "flops_per_node");
  non_negative(dram_bytes_per_node, "dram_bytes_per_node");
  non_negative(hbm_bytes_per_node, "hbm_bytes_per_node");
  non_negative(pcie_bytes_per_node, "pcie_bytes_per_node");
  non_negative(network_bytes_per_task, "network_bytes_per_task");
  non_negative(fs_bytes_per_task, "fs_bytes_per_task");
  non_negative(external_bytes_per_task, "external_bytes_per_task");
  non_negative(overhead_seconds_per_task, "overhead_seconds_per_task");
}

util::Json WorkflowCharacterization::to_json() const {
  util::JsonObject o;
  o.set("name", util::Json(name));
  o.set("total_tasks", util::Json(total_tasks));
  o.set("parallel_tasks", util::Json(parallel_tasks));
  o.set("nodes_per_task", util::Json(nodes_per_task));
  auto set_nonzero = [&o](const char* key, double v) {
    if (v != 0.0) o.set(key, util::Json(v));
  };
  set_nonzero("flops_per_node", flops_per_node);
  set_nonzero("dram_bytes_per_node", dram_bytes_per_node);
  set_nonzero("hbm_bytes_per_node", hbm_bytes_per_node);
  set_nonzero("pcie_bytes_per_node", pcie_bytes_per_node);
  set_nonzero("network_bytes_per_task", network_bytes_per_task);
  set_nonzero("fs_bytes_per_task", fs_bytes_per_task);
  set_nonzero("external_bytes_per_task", external_bytes_per_task);
  set_nonzero("overhead_seconds_per_task", overhead_seconds_per_task);
  if (has_measurement()) o.set("makespan_seconds", util::Json(makespan_seconds));
  if (has_target())
    o.set("target_makespan_seconds", util::Json(target_makespan_seconds));
  return util::Json(std::move(o));
}

WorkflowCharacterization WorkflowCharacterization::from_json(
    const util::Json& json) {
  // Integer fields are range-checked before narrowing; validate() then
  // applies the semantic bounds.
  const auto int_field = [&json](const char* key) {
    return static_cast<int>(json.at(key).as_int_in(
        std::numeric_limits<int>::min(), std::numeric_limits<int>::max(),
        key));
  };
  WorkflowCharacterization c;
  c.name = json.string_or("name", "workflow");
  c.total_tasks = int_field("total_tasks");
  c.parallel_tasks = int_field("parallel_tasks");
  c.nodes_per_task = json.as_object().contains("nodes_per_task")
                         ? int_field("nodes_per_task")
                         : 1;
  c.flops_per_node = json.number_or("flops_per_node", 0.0);
  c.dram_bytes_per_node = json.number_or("dram_bytes_per_node", 0.0);
  c.hbm_bytes_per_node = json.number_or("hbm_bytes_per_node", 0.0);
  c.pcie_bytes_per_node = json.number_or("pcie_bytes_per_node", 0.0);
  c.network_bytes_per_task = json.number_or("network_bytes_per_task", 0.0);
  c.fs_bytes_per_task = json.number_or("fs_bytes_per_task", 0.0);
  c.external_bytes_per_task = json.number_or("external_bytes_per_task", 0.0);
  c.overhead_seconds_per_task =
      json.number_or("overhead_seconds_per_task", 0.0);
  // A present measurement or target must be a real duration: negative
  // means "absent" only in memory, never in a file or a request.
  const auto duration_field = [&json, &c](const char* key) {
    const util::Json* value = json.as_object().find(key);
    if (value == nullptr) return -1.0;
    const double seconds = value->as_number();
    util::require(std::isfinite(seconds) && seconds > 0.0,
                  "workflow '%s': %s must be finite and > 0, got %g",
                  c.name.c_str(), key, seconds);
    return seconds;
  };
  c.makespan_seconds = duration_field("makespan_seconds");
  c.target_makespan_seconds = duration_field("target_makespan_seconds");
  c.validate();
  return c;
}

namespace {

// Shared core of characterize_graph / characterize_trace: fills everything
// derivable from structure and demands, with the critical path chosen by
// `durations` (empty = unit weights).
WorkflowCharacterization characterize_common(
    const dag::WorkflowGraph& graph, std::span<const double> durations) {
  util::require(graph.task_count() > 0,
                "cannot characterize an empty workflow");
  WorkflowCharacterization c;
  c.name = graph.name();
  c.total_tasks = static_cast<int>(graph.task_count());
  c.parallel_tasks = graph.max_parallel_tasks();

  int max_nodes = 1;
  for (dag::TaskId id = 0; id < graph.task_count(); ++id)
    max_nodes = std::max(max_nodes, graph.task(id).nodes);
  c.nodes_per_task = max_nodes;

  // Node-level volumes: per node, summed along the critical path.
  const dag::CriticalPath cp = graph.critical_path(durations);
  for (dag::TaskId id : cp.tasks) {
    const dag::ResourceDemand& d = graph.task(id).demand;
    c.flops_per_node += d.flops_per_node;
    c.dram_bytes_per_node += d.dram_bytes_per_node;
    c.hbm_bytes_per_node += d.hbm_bytes_per_node;
    c.pcie_bytes_per_node += d.pcie_bytes_per_node;
    c.overhead_seconds_per_task += d.overhead_seconds;
    // Network volume summed along the path, like the other node-level
    // channels: the ceiling divides by the task's aggregate NIC bandwidth,
    // so the sum is the path's total network service time per slot.
    c.network_bytes_per_task += d.network_bytes;
  }

  // System volumes: totals over the workflow divided by total task count.
  const dag::ResourceDemand total = graph.total_demand();
  c.fs_bytes_per_task = (total.fs_read_bytes + total.fs_write_bytes) /
                        static_cast<double>(c.total_tasks);
  c.external_bytes_per_task =
      total.external_in_bytes / static_cast<double>(c.total_tasks);
  return c;
}

}  // namespace

WorkflowCharacterization characterize_graph(const dag::WorkflowGraph& graph) {
  WorkflowCharacterization c = characterize_common(graph, {});
  c.validate();
  return c;
}

WorkflowCharacterization characterize_trace(const dag::WorkflowGraph& graph,
                                            const trace::WorkflowTrace& trace) {
  util::require(trace.records().size() == graph.task_count(),
                "trace does not cover every task in the graph");
  // Measured durations indexed by task id.
  std::vector<double> durations(graph.task_count(), 0.0);
  for (const trace::TaskRecord& r : trace.records()) {
    util::require(r.task < graph.task_count(),
                  "trace record references an unknown task id");
    durations[r.task] = r.duration();
  }
  WorkflowCharacterization c = characterize_common(graph, durations);
  c.parallel_tasks = std::max(1, trace.peak_concurrency());
  c.makespan_seconds = trace.makespan_seconds();
  c.validate();
  return c;
}

}  // namespace wfr::core

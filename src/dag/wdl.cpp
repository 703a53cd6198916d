#include "dag/wdl.hpp"

#include <limits>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace wfr::dag {

namespace {

// Reads a quantity member that may be a raw number (base units) or a unit
// string parsed by `parse_text`.
double read_quantity(const util::Json& obj, std::string_view key,
                     double (*parse_text)(std::string_view)) {
  const util::Json* v = obj.as_object().find(key);
  if (v == nullptr) return 0.0;
  if (v->is_number()) return v->as_number();
  if (v->is_string()) return parse_text(v->as_string());
  throw util::ParseError("demand member '" + std::string(key) +
                         "' must be a number or unit string");
}

ResourceDemand read_demand(const util::Json& d) {
  ResourceDemand out;
  out.external_in_bytes = read_quantity(d, "external_in", util::parse_bytes);
  out.fs_read_bytes = read_quantity(d, "fs_read", util::parse_bytes);
  out.fs_write_bytes = read_quantity(d, "fs_write", util::parse_bytes);
  out.network_bytes = read_quantity(d, "network", util::parse_bytes);
  out.flops_per_node = read_quantity(d, "flops_per_node", util::parse_flops);
  out.dram_bytes_per_node = read_quantity(d, "dram_per_node", util::parse_bytes);
  out.hbm_bytes_per_node = read_quantity(d, "hbm_per_node", util::parse_bytes);
  out.pcie_bytes_per_node = read_quantity(d, "pcie_per_node", util::parse_bytes);
  out.overhead_seconds = read_quantity(d, "overhead", util::parse_seconds);
  // Reject unknown keys so that typos do not silently drop demands.
  static constexpr std::string_view kKnown[] = {
      "external_in", "fs_read", "fs_write", "network", "flops_per_node",
      "dram_per_node", "hbm_per_node", "pcie_per_node", "overhead"};
  for (const auto& [key, value] : d.as_object().members()) {
    bool known = false;
    for (std::string_view k : kKnown) known = known || key == k;
    if (!known)
      throw util::ParseError("unknown demand member '" + key + "'");
  }
  return out;
}

}  // namespace

WorkflowGraph load_workflow(std::string_view json_text) {
  return load_workflow_json(util::Json::parse(json_text));
}

WorkflowGraph load_workflow_json(const util::Json& json) {
  const util::JsonObject& root = json.as_object();
  WorkflowGraph graph(json.string_or("name", "workflow"));

  const util::Json& tasks = root.at("tasks");
  // First pass: create tasks so that forward dependency references work.
  for (const util::Json& t : tasks.as_array()) {
    TaskSpec spec;
    spec.name = t.at("name").as_string();
    // Reject unknown keys: a misspelled "depends_on" would otherwise load
    // as a task without dependencies.
    static constexpr std::string_view kKnown[] = {
        "name", "kind", "nodes", "demand", "fixed_duration", "depends_on"};
    for (const auto& [key, value] : t.as_object().members()) {
      bool known = false;
      for (std::string_view k : kKnown) known = known || key == k;
      if (!known)
        throw util::ParseError("unknown task member '" + key + "' in task '" +
                               spec.name + "'");
    }
    spec.kind = t.string_or("kind", "");
    spec.nodes = t.as_object().contains("nodes")
                     ? static_cast<int>(t.at("nodes").as_int_in(
                           std::numeric_limits<int>::min(),
                           std::numeric_limits<int>::max(), "nodes"))
                     : 1;
    if (const util::Json* d = t.as_object().find("demand"))
      spec.demand = read_demand(*d);
    if (const util::Json* fd = t.as_object().find("fixed_duration")) {
      spec.fixed_duration_seconds = fd->is_number()
                                        ? fd->as_number()
                                        : util::parse_seconds(fd->as_string());
    }
    graph.add_task(std::move(spec));
  }
  // Second pass: wire dependencies.
  for (const util::Json& t : tasks.as_array()) {
    const TaskId consumer = graph.find_task(t.at("name").as_string());
    if (const util::Json* deps = t.as_object().find("depends_on")) {
      for (const util::Json& dep : deps->as_array())
        graph.add_dependency(graph.find_task(dep.as_string()), consumer);
    }
  }
  graph.validate();
  return graph;
}

util::Json save_workflow(const WorkflowGraph& graph) {
  util::JsonObject root;
  root.set("name", util::Json(graph.name()));
  util::JsonArray tasks;
  for (TaskId id = 0; id < graph.task_count(); ++id) {
    const TaskSpec& spec = graph.task(id);
    util::JsonObject t;
    t.set("name", util::Json(spec.name));
    if (!spec.kind.empty()) t.set("kind", util::Json(spec.kind));
    if (spec.nodes != 1) t.set("nodes", util::Json(spec.nodes));
    if (!graph.predecessors(id).empty()) {
      util::JsonArray deps;
      for (TaskId pred : graph.predecessors(id))
        deps.emplace_back(graph.task(pred).name);
      t.set("depends_on", util::Json(std::move(deps)));
    }
    if (spec.fixed_duration_seconds >= 0.0)
      t.set("fixed_duration", util::Json(spec.fixed_duration_seconds));
    if (!spec.demand.is_zero()) {
      util::JsonObject d;
      const ResourceDemand& dm = spec.demand;
      auto set_nonzero = [&d](const char* key, double v) {
        if (v != 0.0) d.set(key, util::Json(v));
      };
      set_nonzero("external_in", dm.external_in_bytes);
      set_nonzero("fs_read", dm.fs_read_bytes);
      set_nonzero("fs_write", dm.fs_write_bytes);
      set_nonzero("network", dm.network_bytes);
      set_nonzero("flops_per_node", dm.flops_per_node);
      set_nonzero("dram_per_node", dm.dram_bytes_per_node);
      set_nonzero("hbm_per_node", dm.hbm_bytes_per_node);
      set_nonzero("pcie_per_node", dm.pcie_bytes_per_node);
      set_nonzero("overhead", dm.overhead_seconds);
      t.set("demand", util::Json(std::move(d)));
    }
    tasks.emplace_back(std::move(t));
  }
  root.set("tasks", util::Json(std::move(tasks)));
  return util::Json(std::move(root));
}

std::string save_workflow_text(const WorkflowGraph& graph) {
  return save_workflow(graph).pretty();
}

}  // namespace wfr::dag

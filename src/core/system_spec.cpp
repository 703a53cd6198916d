#include "core/system_spec.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace wfr::core {

void SystemSpec::validate() const {
  util::require(total_nodes >= 1, "system must have >= 1 node");
  auto non_negative = [this](double v, const char* field) {
    util::require(v >= 0.0 && std::isfinite(v),
                  "system '%s': %s must be finite and >= 0", name.c_str(),
                  field);
  };
  non_negative(node.peak_flops, "node.peak_flops");
  non_negative(node.dram_gbs, "node.dram_gbs");
  non_negative(node.hbm_gbs, "node.hbm_gbs");
  non_negative(node.pcie_gbs, "node.pcie_gbs");
  non_negative(node.nic_gbs, "node.nic_gbs");
  non_negative(fs_gbs, "fs_gbs");
  non_negative(external_gbs, "external_gbs");
}

int SystemSpec::parallelism_wall(int nodes_per_task) const {
  util::require(nodes_per_task >= 1, "nodes_per_task must be >= 1");
  return total_nodes / nodes_per_task;
}

sim::MachineConfig SystemSpec::to_machine() const {
  sim::MachineConfig m;
  m.name = name;
  m.total_nodes = total_nodes;
  m.node_flops = node.peak_flops;
  m.dram_gbs = node.dram_gbs;
  m.hbm_gbs = node.hbm_gbs;
  m.pcie_gbs = node.pcie_gbs;
  m.nic_gbs = node.nic_gbs;
  m.fs_gbs = fs_gbs;
  m.external_gbs = external_gbs;
  return m;
}

SystemSpec SystemSpec::from_machine(const sim::MachineConfig& machine) {
  SystemSpec s;
  s.name = machine.name;
  s.total_nodes = machine.total_nodes;
  s.node.peak_flops = machine.node_flops;
  s.node.dram_gbs = machine.dram_gbs;
  s.node.hbm_gbs = machine.hbm_gbs;
  s.node.pcie_gbs = machine.pcie_gbs;
  s.node.nic_gbs = machine.nic_gbs;
  s.fs_gbs = machine.fs_gbs;
  s.external_gbs = machine.external_gbs;
  return s;
}

util::Json SystemSpec::to_json() const {
  util::JsonObject node_obj;
  node_obj.set("peak_flops", util::Json(node.peak_flops));
  node_obj.set("dram_gbs", util::Json(node.dram_gbs));
  node_obj.set("hbm_gbs", util::Json(node.hbm_gbs));
  node_obj.set("pcie_gbs", util::Json(node.pcie_gbs));
  node_obj.set("nic_gbs", util::Json(node.nic_gbs));
  util::JsonObject root;
  root.set("name", util::Json(name));
  root.set("total_nodes", util::Json(total_nodes));
  root.set("node", util::Json(std::move(node_obj)));
  root.set("fs_gbs", util::Json(fs_gbs));
  root.set("external_gbs", util::Json(external_gbs));
  return util::Json(std::move(root));
}

namespace {
// Accepts either a raw number (base units/s) or a unit string ("5.6 TB/s").
double read_rate(const util::Json& obj, std::string_view key, double fallback) {
  const util::Json* v = obj.as_object().find(key);
  if (v == nullptr) return fallback;
  if (v->is_number()) return v->as_number();
  return util::parse_rate(v->as_string());
}
}  // namespace

SystemSpec SystemSpec::from_json(const util::Json& json) {
  SystemSpec s;
  s.name = json.string_or("name", "system");
  s.total_nodes = static_cast<int>(json.at("total_nodes").as_int_in(
      std::numeric_limits<int>::min(), std::numeric_limits<int>::max(),
      "total_nodes"));
  const util::Json& n = json.at("node");
  const util::Json* flops = n.as_object().find("peak_flops");
  util::require(flops != nullptr, "system spec node needs peak_flops");
  s.node.peak_flops = flops->is_number()
                          ? flops->as_number()
                          : util::parse_flops(util::replace_all(
                                flops->as_string(), "/s", "")) ;
  s.node.dram_gbs = read_rate(n, "dram_gbs", 0.0);
  s.node.hbm_gbs = read_rate(n, "hbm_gbs", 0.0);
  s.node.pcie_gbs = read_rate(n, "pcie_gbs", 0.0);
  s.node.nic_gbs = read_rate(n, "nic_gbs", 0.0);
  s.fs_gbs = read_rate(json, "fs_gbs", 0.0);
  s.external_gbs = read_rate(json, "external_gbs", 0.0);
  s.validate();
  return s;
}

SystemSpec SystemSpec::perlmutter_gpu() {
  return from_machine(sim::perlmutter_gpu());
}

SystemSpec SystemSpec::perlmutter_cpu() {
  return from_machine(sim::perlmutter_cpu());
}

SystemSpec SystemSpec::cori_haswell() {
  return from_machine(sim::cori_haswell());
}

namespace {
constexpr SystemPreset kPresets[] = {
    {"perlmutter-gpu", &SystemSpec::perlmutter_gpu},
    {"perlmutter-cpu", &SystemSpec::perlmutter_cpu},
    {"cori-haswell", &SystemSpec::cori_haswell},
};
}  // namespace

const std::span<const SystemPreset> kSystemPresets(kPresets);

std::optional<SystemSpec> SystemSpec::preset(std::string_view name) {
  for (const SystemPreset& p : kPresets)
    if (p.name == name) return p.make();
  return std::nullopt;
}

}  // namespace wfr::core

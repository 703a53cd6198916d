#pragma once
// System (architecture) characterization for the Workflow Roofline model
// (paper Section III-A): per-node peaks plus shared system bandwidths.
// The same description converts to sim::MachineConfig so the analytical
// model and the simulator always agree on the machine.

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "sim/machine.hpp"
#include "util/json.hpp"

namespace wfr::core {

/// Peak capabilities of one compute node.
struct NodeSpec {
  double peak_flops = 0.0;  // FLOP/s
  double dram_gbs = 0.0;    // bytes/s
  double hbm_gbs = 0.0;     // bytes/s
  double pcie_gbs = 0.0;    // bytes/s (host<->device, all links)
  double nic_gbs = 0.0;     // bytes/s injection per node
};

/// Peak capabilities of a whole system: the inputs to the Workflow
/// Roofline ceilings.
struct SystemSpec {
  std::string name = "system";
  NodeSpec node;
  /// Nodes available to workflows (the numerator of the parallelism wall).
  int total_nodes = 1;
  /// Shared parallel-filesystem aggregate bandwidth ("system internal").
  double fs_gbs = 0.0;
  /// External ingress bandwidth ("system external": detector link, DTN).
  double external_gbs = 0.0;

  /// Validates invariants; throws InvalidArgument on violation.
  void validate() const;

  /// The paper's system parallelism wall: floor(total / nodes_per_task).
  /// Throws when nodes_per_task < 1.
  int parallelism_wall(int nodes_per_task) const;

  /// Conversion to the simulator's machine description.
  sim::MachineConfig to_machine() const;
  static SystemSpec from_machine(const sim::MachineConfig& machine);

  /// JSON (for the CLI's --system files).
  util::Json to_json() const;
  static SystemSpec from_json(const util::Json& json);

  // --- Presets (values from the paper's artifact appendix) -----------------
  static SystemSpec perlmutter_gpu();
  static SystemSpec perlmutter_cpu();
  static SystemSpec cori_haswell();

  /// The preset named `name`; nullopt when no preset has that name.
  static std::optional<SystemSpec> preset(std::string_view name);
};

/// A built-in system: the name `--system` and the /v1 "system" field
/// accept, and the factory that builds it.
struct SystemPreset {
  std::string_view name;
  SystemSpec (*make)();
};

/// Every preset, in the order `wfr presets` lists them.
extern const std::span<const SystemPreset> kSystemPresets;

}  // namespace wfr::core

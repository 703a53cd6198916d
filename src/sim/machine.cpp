#include "sim/machine.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace wfr::sim {

void MachineConfig::validate() const {
  util::require(total_nodes >= 1, "machine must have >= 1 node");
  auto non_negative = [this](double v, const char* field) {
    util::require(v >= 0.0 && std::isfinite(v),
                  "machine '%s': %s must be finite and >= 0", name.c_str(),
                  field);
  };
  non_negative(node_flops, "node_flops");
  non_negative(dram_gbs, "dram_gbs");
  non_negative(hbm_gbs, "hbm_gbs");
  non_negative(pcie_gbs, "pcie_gbs");
  non_negative(nic_gbs, "nic_gbs");
  non_negative(fs_gbs, "fs_gbs");
  non_negative(external_gbs, "external_gbs");
}

MachineConfig perlmutter_gpu() {
  MachineConfig m;
  m.name = "perlmutter-gpu";
  m.total_nodes = 1792;
  m.node_flops = 4.0 * 9.7 * util::kTFLOPS;
  m.dram_gbs = 204.8 * util::kGBs;
  m.hbm_gbs = 4.0 * 1555.0 * util::kGBs;
  m.pcie_gbs = 4.0 * 25.0 * util::kGBs;
  m.nic_gbs = 100.0 * util::kGBs;
  m.fs_gbs = 5.6 * util::kTBs;
  m.external_gbs = 25.0 * util::kGBs;
  return m;
}

MachineConfig perlmutter_cpu() {
  MachineConfig m;
  m.name = "perlmutter-cpu";
  m.total_nodes = 3072;
  m.node_flops = 5.0 * util::kTFLOPS;
  m.dram_gbs = 2.0 * 204.8 * util::kGBs;
  m.hbm_gbs = 0.0;
  m.pcie_gbs = 0.0;
  m.nic_gbs = 25.0 * util::kGBs;
  m.fs_gbs = 4.8 * util::kTBs;
  m.external_gbs = 25.0 * util::kGBs;
  return m;
}

MachineConfig cori_haswell() {
  MachineConfig m;
  m.name = "cori-haswell";
  m.total_nodes = 2388;
  m.node_flops = 1.2 * util::kTFLOPS;
  m.dram_gbs = 129.0 * util::kGBs;
  m.hbm_gbs = 0.0;
  m.pcie_gbs = 0.0;
  m.nic_gbs = 8.0 * util::kGBs;
  m.fs_gbs = 910.0 * util::kGBs;  // aggregate burst buffer
  m.external_gbs = 1.0 * util::kGBs;  // 2020 LCLS observed average
  return m;
}

}  // namespace wfr::sim

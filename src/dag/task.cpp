#include "dag/task.hpp"

#include <cmath>

#include "util/error.hpp"

namespace wfr::dag {

bool ResourceDemand::is_zero() const {
  return external_in_bytes == 0.0 && fs_read_bytes == 0.0 &&
         fs_write_bytes == 0.0 && network_bytes == 0.0 &&
         flops_per_node == 0.0 && dram_bytes_per_node == 0.0 &&
         hbm_bytes_per_node == 0.0 && pcie_bytes_per_node == 0.0 &&
         overhead_seconds == 0.0;
}

ResourceDemand ResourceDemand::operator+(const ResourceDemand& other) const {
  ResourceDemand out = *this;
  out.external_in_bytes += other.external_in_bytes;
  out.fs_read_bytes += other.fs_read_bytes;
  out.fs_write_bytes += other.fs_write_bytes;
  out.network_bytes += other.network_bytes;
  out.flops_per_node += other.flops_per_node;
  out.dram_bytes_per_node += other.dram_bytes_per_node;
  out.hbm_bytes_per_node += other.hbm_bytes_per_node;
  out.pcie_bytes_per_node += other.pcie_bytes_per_node;
  out.overhead_seconds += other.overhead_seconds;
  return out;
}

void TaskSpec::validate() const {
  util::require(!name.empty(), "task name must be non-empty");
  util::require(nodes >= 1,
                "task '%s': nodes must be >= 1 (got %d)", name.c_str(),
                nodes);
  auto non_negative = [&](double v, const char* field) {
    util::require(v >= 0.0 && std::isfinite(v),
                  "task '%s': %s must be finite and >= 0", name.c_str(),
                  field);
  };
  non_negative(demand.external_in_bytes, "external_in_bytes");
  non_negative(demand.fs_read_bytes, "fs_read_bytes");
  non_negative(demand.fs_write_bytes, "fs_write_bytes");
  non_negative(demand.network_bytes, "network_bytes");
  non_negative(demand.flops_per_node, "flops_per_node");
  non_negative(demand.dram_bytes_per_node, "dram_bytes_per_node");
  non_negative(demand.hbm_bytes_per_node, "hbm_bytes_per_node");
  non_negative(demand.pcie_bytes_per_node, "pcie_bytes_per_node");
  non_negative(demand.overhead_seconds, "overhead_seconds");
}

}  // namespace wfr::dag

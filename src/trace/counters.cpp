#include "trace/counters.hpp"

#include "util/strings.hpp"
#include "util/units.hpp"

namespace wfr::trace {

ChannelCounters& ChannelCounters::operator+=(const ChannelCounters& other) {
  external_in_bytes += other.external_in_bytes;
  fs_read_bytes += other.fs_read_bytes;
  fs_write_bytes += other.fs_write_bytes;
  network_bytes += other.network_bytes;
  flops += other.flops;
  dram_bytes += other.dram_bytes;
  hbm_bytes += other.hbm_bytes;
  pcie_bytes += other.pcie_bytes;
  return *this;
}

ChannelCounters counters_from_demand(const dag::ResourceDemand& demand,
                                     int nodes) {
  ChannelCounters c;
  const auto n = static_cast<double>(nodes);
  c.external_in_bytes = demand.external_in_bytes;
  c.fs_read_bytes = demand.fs_read_bytes;
  c.fs_write_bytes = demand.fs_write_bytes;
  c.network_bytes = demand.network_bytes;
  c.flops = demand.flops_per_node * n;
  c.dram_bytes = demand.dram_bytes_per_node * n;
  c.hbm_bytes = demand.hbm_bytes_per_node * n;
  c.pcie_bytes = demand.pcie_bytes_per_node * n;
  return c;
}

std::string describe(const ChannelCounters& c) {
  std::string out;
  auto append = [&out](const char* key, const std::string& value) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += value;
  };
  if (c.external_in_bytes > 0.0)
    append("ext", util::format_bytes(c.external_in_bytes));
  if (c.fs_bytes() > 0.0) append("fs", util::format_bytes(c.fs_bytes()));
  if (c.network_bytes > 0.0) append("net", util::format_bytes(c.network_bytes));
  if (c.flops > 0.0) append("flops", util::format_flops(c.flops));
  if (c.dram_bytes > 0.0) append("dram", util::format_bytes(c.dram_bytes));
  if (c.hbm_bytes > 0.0) append("hbm", util::format_bytes(c.hbm_bytes));
  if (c.pcie_bytes > 0.0) append("pcie", util::format_bytes(c.pcie_bytes));
  if (out.empty()) out = "(no traffic)";
  return out;
}

}  // namespace wfr::trace

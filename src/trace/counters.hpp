#pragma once
// Lightweight per-channel counters: the paper's Section III argues workflow
// profiling must use lightweight metrics (data volume and flops per
// channel) rather than heavyweight traces.  These counters are what the
// simulator (or a real instrumented run) accumulates.

#include <string>

#include "dag/task.hpp"

namespace wfr::trace {

/// Totals per data channel for one task or one whole workflow.  Unlike
/// dag::ResourceDemand (whose node fields are per-node volumes), these are
/// absolute totals.
struct ChannelCounters {
  double external_in_bytes = 0.0;
  double fs_read_bytes = 0.0;
  double fs_write_bytes = 0.0;
  double network_bytes = 0.0;
  double flops = 0.0;
  double dram_bytes = 0.0;
  double hbm_bytes = 0.0;
  double pcie_bytes = 0.0;

  ChannelCounters& operator+=(const ChannelCounters& other);

  double fs_bytes() const { return fs_read_bytes + fs_write_bytes; }
};

/// Expands a per-task demand into absolute totals given the task's node
/// count (node-level fields are multiplied by `nodes`).
ChannelCounters counters_from_demand(const dag::ResourceDemand& demand,
                                     int nodes);

/// Human-readable one-line summary, e.g.
/// "ext=5 TB fs=71 GB net=168 GB flops=4.39 EFLOP".
std::string describe(const ChannelCounters& counters);

}  // namespace wfr::trace

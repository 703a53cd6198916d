#pragma once
// Aggregation of execution traces into the summaries the Workflow Roofline
// model and the paper's breakdown figures consume: per-phase time
// breakdowns (Figs. 5b, 10b) and a Darshan-style I/O report.

#include <string>
#include <vector>

#include "trace/timeline.hpp"

namespace wfr::trace {

/// One labelled component of a stacked time-breakdown bar.
struct BreakdownComponent {
  std::string label;
  double seconds = 0.0;
};

/// A stacked bar: a scenario name plus its components.
struct TimeBreakdown {
  std::string scenario;
  std::vector<BreakdownComponent> components;

  double total_seconds() const;
  /// Returns the component with `label`, adding it (0 s) when absent.
  BreakdownComponent& component(const std::string& label);
  /// Read-only lookup; throws NotFound when absent.
  const BreakdownComponent& component(const std::string& label) const;
};

/// Summarizes a trace into a per-phase breakdown.  Phase times are summed
/// across tasks; concurrent tasks therefore contribute more than wall
/// clock, matching how the paper reports aggregate "loading data" vs
/// "analysis" time.  When `wall_clock` is true, phase times are instead
/// measured as the union of intervals (wall-clock attribution).
TimeBreakdown breakdown_by_phase(const WorkflowTrace& trace,
                                 bool wall_clock = false);

/// Darshan-style I/O characterization of one shared channel.
struct IoChannelReport {
  std::string channel;          // "external_in", "fs_read", "fs_write"
  double bytes = 0.0;           // total volume
  double busy_seconds = 0.0;    // union of intervals touching this channel
  int task_count = 0;           // tasks that used the channel
  /// bytes / busy_seconds (0 when idle).
  double achieved_bandwidth() const;
};

/// Full I/O report for a trace.
struct IoReport {
  std::vector<IoChannelReport> channels;
};

/// Builds the I/O report (external_in, fs_read, fs_write channels).
IoReport io_report(const WorkflowTrace& trace);

/// Per-task one-line summaries for human inspection.
std::string describe_trace(const WorkflowTrace& trace);

}  // namespace wfr::trace

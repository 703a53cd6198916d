#pragma once
// Gantt-chart renderer (Fig. 7d): one lane per task, bars split into phase
// segments with a legend of the phases present, and an optional
// critical-path overlay.  The chart is 820 px wide with 26 px lanes.

#include <string>
#include <vector>

#include "dag/graph.hpp"
#include "trace/timeline.hpp"

namespace wfr::plot {

struct GanttPlotOptions {
  std::string title = "Gantt chart";
  /// Highlight these task ids as the critical path (drawn as a connected
  /// outline).  Empty disables the overlay.
  std::vector<dag::TaskId> critical_path;
};

/// Renders the trace as a standalone SVG string.  Lanes are ordered by task
/// start time.
std::string render_gantt(const trace::WorkflowTrace& trace,
                         const GanttPlotOptions& options = {});

/// Renders and writes to `path`; throws util::Error naming the path when
/// the write fails.
void write_gantt_svg(const trace::WorkflowTrace& trace,
                     const std::string& path,
                     const GanttPlotOptions& options = {});

}  // namespace wfr::plot

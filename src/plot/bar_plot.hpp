#pragma once
// Stacked-bar renderer for time breakdowns (Figs. 5b and 10b): one bar per
// scenario, stacked by labelled component, with a legend, on a 560x420
// canvas whose y axis reads "Time (s)".

#include <string>
#include <vector>

#include "trace/summary.hpp"

namespace wfr::plot {

struct BarPlotOptions {
  std::string title = "Time breakdown";
};

/// Renders stacked bars.  Component colors are assigned by first
/// appearance across all breakdowns, so the same label gets the same color
/// in every bar.
std::string render_breakdown(const std::vector<trace::TimeBreakdown>& bars,
                             const BarPlotOptions& options = {});

/// Renders and writes to `path`; throws util::Error naming the path when
/// the write fails.
void write_breakdown_svg(const std::vector<trace::TimeBreakdown>& bars,
                         const std::string& path,
                         const BarPlotOptions& options = {});

}  // namespace wfr::plot

#pragma once
// SVG renderer for Workflow Roofline figures: ceilings, the parallelism
// wall, the unattainable region, target lines with the four-zone tinting of
// Fig. 2a, and measured/projected dots.  Also renders the task view of
// Fig. 7c.

#include <string>

#include "core/model.hpp"
#include "core/taskview.hpp"
#include "plot/palette.hpp"

namespace wfr::plot {

struct RooflinePlotOptions {
  double width = 780.0;
  double height = 560.0;
  std::string title;  // defaults to "<workflow> on <system>"
};

/// Renders the model as a standalone SVG string: the x axis runs from 1 to
/// twice the parallelism wall, the y domain spans every ceiling, dot and
/// target, the region above the ceilings / right of the wall is shaded,
/// the four target zones are tinted when the model has targets, and
/// ceilings, targets and dots carry labels.
std::string render_roofline(const core::RooflineModel& model,
                            const RooflinePlotOptions& options = {});

/// Renders and writes to `path`; throws util::Error naming the path when
/// the write fails.
void write_roofline_svg(const core::RooflineModel& model,
                        const std::string& path,
                        const RooflinePlotOptions& options = {});

/// The task view is drawn on a 780x560 canvas.
struct TaskViewPlotOptions {
  std::string title = "Task view";
  /// The parallelism wall to draw (tasks cannot scale past it).
  int parallelism_wall = 1;
};

/// Renders a task view (Fig. 7c): one dot and one node-ceiling diagonal per
/// entry, colored by group.
std::string render_task_view(const core::TaskView& view,
                             const TaskViewPlotOptions& options = {});

/// Renders and writes to `path`; throws util::Error naming the path when
/// the write fails.
void write_task_view_svg(const core::TaskView& view, const std::string& path,
                         const TaskViewPlotOptions& options = {});

}  // namespace wfr::plot

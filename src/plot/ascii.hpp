#pragma once
// Terminal (ASCII) renderers: the CLI's quick look at a Workflow Roofline
// without leaving the shell, plus a one-line-per-task Gantt.

#include <string>

#include "core/model.hpp"
#include "trace/timeline.hpp"

namespace wfr::plot {

/// Renders the model as monospace art on a 72-column, 22-row canvas
/// (plus a 10-column y-axis gutter):
///   * '-' horizontal ceilings, '/' diagonals, '|' the parallelism wall,
///   * '#' the unattainable region, 'O' measured dots, 'o' projected dots,
///   * '~' target lines.
/// A key with ceiling labels follows the canvas.
std::string ascii_roofline(const core::RooflineModel& model);

/// Renders a trace as one 64-column bar per task:
///   name  |   ====####====   | with '=' work and '#' I/O phases.
std::string ascii_gantt(const trace::WorkflowTrace& trace);

}  // namespace wfr::plot

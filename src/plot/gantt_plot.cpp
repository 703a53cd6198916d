#include "plot/gantt_plot.hpp"

#include <algorithm>
#include <vector>

#include "plot/axes.hpp"
#include "plot/palette.hpp"
#include "plot/svg.hpp"
#include "util/error.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace wfr::plot {

namespace {

constexpr double kWidth = 820.0;
constexpr double kLaneHeight = 26.0;

std::string phase_color(trace::Phase phase, const Palette& p) {
  switch (phase) {
    case trace::Phase::kOverhead: return p.series_color(6);    // magenta
    case trace::Phase::kExternalIn: return p.series_color(5);  // red
    case trace::Phase::kFsRead: return p.series_color(2);      // yellow
    case trace::Phase::kWork: return p.series_color(0);        // blue
    case trace::Phase::kFsWrite: return p.series_color(7);     // orange
  }
  return p.text_secondary;
}

}  // namespace

std::string render_gantt(const trace::WorkflowTrace& trace,
                         const GanttPlotOptions& options) {
  util::require(!trace.empty(), "cannot render an empty trace");
  const Palette& p = default_palette();

  // Order lanes by start time (stable by record order).
  std::vector<const trace::TaskRecord*> lanes;
  for (const trace::TaskRecord& r : trace.records()) lanes.push_back(&r);
  std::stable_sort(lanes.begin(), lanes.end(),
                   [](const trace::TaskRecord* a, const trace::TaskRecord* b) {
                     return a->start_seconds < b->start_seconds;
                   });

  const double margin_left = 150.0;
  const double margin_right = 24.0;
  const double margin_top = 44.0;
  const double margin_bottom = 54.0;
  const double height = margin_top + margin_bottom +
                        kLaneHeight * static_cast<double>(lanes.size());
  SvgDocument svg(kWidth, height);
  svg.rect(0, 0, kWidth, height, Style{.fill = p.surface});

  double t_end = 0.0;
  for (const auto* r : lanes) t_end = std::max(t_end, r->end_seconds);
  if (t_end <= 0.0) t_end = 1.0;
  LinearScale x(0.0, t_end, margin_left, kWidth - margin_right);

  // Time axis.
  for (double t : x.ticks()) {
    const double px = x(t);
    svg.line(px, margin_top, px, height - margin_bottom,
             Style{.stroke = p.grid, .stroke_width = 1.0});
    svg.text(px, height - margin_bottom + 16.0, tick_label(t),
             TextStyle{.size = 11, .fill = p.text_secondary,
                       .anchor = Anchor::kMiddle});
  }
  svg.text((margin_left + kWidth - margin_right) / 2.0, height - 16.0,
           "Time (s)",
           TextStyle{.size = 13, .fill = p.text_primary,
                     .anchor = Anchor::kMiddle});
  svg.text(margin_left, 26.0, options.title,
           TextStyle{.size = 15, .fill = p.text_primary, .bold = true});

  // Lanes.
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const trace::TaskRecord& r = *lanes[i];
    const double y = margin_top + kLaneHeight * static_cast<double>(i);
    const double bar_top = y + 4.0;
    const double bar_h = kLaneHeight - 8.0;
    svg.text(margin_left - 8.0, y + kLaneHeight / 2.0 + 4.0, r.name,
             TextStyle{.size = 11, .fill = p.text_primary,
                       .anchor = Anchor::kEnd});
    if (!r.spans.empty()) {
      for (const trace::Span& s : r.spans) {
        const double x0 = x(s.start_seconds);
        // 2px surface gap between adjacent segments.
        const double x1 = std::max(x(s.end_seconds) - 2.0, x0 + 0.5);
        svg.rect(x0, bar_top, x1 - x0, bar_h,
                 Style{.fill = phase_color(s.phase, p)}, 3.0);
      }
    } else {
      const double x0 = x(r.start_seconds);
      const double x1 = std::max(x(r.end_seconds), x0 + 0.5);
      svg.rect(x0, bar_top, x1 - x0, bar_h,
               Style{.fill = p.series_color(0)}, 3.0);
    }
  }

  // Critical-path overlay: connected black outline through the path tasks.
  if (!options.critical_path.empty()) {
    std::vector<std::pair<double, double>> points;
    for (dag::TaskId id : options.critical_path) {
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        if (lanes[i]->task == id) {
          const double y = margin_top +
                           kLaneHeight * static_cast<double>(i) +
                           kLaneHeight / 2.0;
          points.emplace_back(x(lanes[i]->start_seconds), y);
          points.emplace_back(x(lanes[i]->end_seconds), y);
          break;
        }
      }
    }
    svg.polyline(points, Style{.stroke = p.text_primary, .stroke_width = 2.5});
  }

  // Legend for phases present in the trace.
  double lx = margin_left;
  for (trace::Phase ph :
       {trace::Phase::kOverhead, trace::Phase::kExternalIn,
        trace::Phase::kFsRead, trace::Phase::kWork, trace::Phase::kFsWrite}) {
    if (trace.total_time_in_phase(ph) <= 0.0) continue;
    svg.rect(lx, 32.0, 10.0, 10.0, Style{.fill = phase_color(ph, p)}, 2.0);
    const std::string label = trace::phase_name(ph);
    svg.text(lx + 14.0, 41.0, label,
             TextStyle{.size = 10, .fill = p.text_secondary});
    lx += 24.0 + 6.5 * static_cast<double>(label.size());
  }

  return svg.str();
}

void write_gantt_svg(const trace::WorkflowTrace& trace,
                     const std::string& path,
                     const GanttPlotOptions& options) {
  util::write_file(path, render_gantt(trace, options));
}

}  // namespace wfr::plot

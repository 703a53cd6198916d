#include "plot/bar_plot.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "plot/axes.hpp"
#include "plot/palette.hpp"
#include "plot/svg.hpp"
#include "util/error.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace wfr::plot {

namespace {
constexpr double kWidth = 560.0;
constexpr double kHeight = 420.0;
}  // namespace

std::string render_breakdown(const std::vector<trace::TimeBreakdown>& bars,
                             const BarPlotOptions& options) {
  util::require(!bars.empty(), "no breakdowns to render");
  const Palette& p = default_palette();
  SvgDocument svg(kWidth, kHeight);
  svg.rect(0, 0, kWidth, kHeight, Style{.fill = p.surface});

  const double margin_left = 70.0;
  const double margin_right = 24.0;
  const double margin_top = 70.0;
  const double margin_bottom = 56.0;
  const double plot_w = kWidth - margin_left - margin_right;
  const double plot_h = kHeight - margin_top - margin_bottom;

  // Component color order by first appearance.
  std::map<std::string, int> slot;
  std::vector<std::string> legend_order;
  double max_total = 0.0;
  for (const trace::TimeBreakdown& b : bars) {
    max_total = std::max(max_total, b.total_seconds());
    for (const trace::BreakdownComponent& c : b.components) {
      if (!slot.count(c.label)) {
        slot[c.label] = static_cast<int>(slot.size());
        legend_order.push_back(c.label);
      }
    }
  }
  util::require(max_total > 0.0, "all breakdowns are empty");

  LinearScale y(0.0, max_total * 1.05, margin_top + plot_h, margin_top);

  // Gridlines + y ticks.
  for (double t : y.ticks()) {
    const double py = y(t);
    svg.line(margin_left, py, margin_left + plot_w, py,
             Style{.stroke = p.grid, .stroke_width = 1.0});
    svg.text(margin_left - 8.0, py + 4.0, tick_label(t),
             TextStyle{.size = 11, .fill = p.text_secondary,
                       .anchor = Anchor::kEnd});
  }
  svg.text(margin_left, 26.0, options.title,
           TextStyle{.size = 15, .fill = p.text_primary, .bold = true});
  svg.text(18.0, margin_top + plot_h / 2.0, "Time (s)",
           TextStyle{.size = 13, .fill = p.text_primary,
                     .anchor = Anchor::kMiddle, .rotate = -90.0});

  // Bars (thin marks: at most 64px wide).
  const double n = static_cast<double>(bars.size());
  const double band = plot_w / n;
  const double bar_w = std::min(band * 0.55, 64.0);
  for (std::size_t i = 0; i < bars.size(); ++i) {
    const trace::TimeBreakdown& b = bars[i];
    const double cx = margin_left + band * (static_cast<double>(i) + 0.5);
    double cum = 0.0;
    for (const trace::BreakdownComponent& c : b.components) {
      if (c.seconds <= 0.0) continue;
      const double y0 = y(cum + c.seconds);
      const double y1 = y(cum);
      // 2px surface gap between stacked segments.
      const double seg_top = y0 + 1.0;
      const double seg_h = std::max(y1 - y0 - 2.0, 0.5);
      svg.rect(cx - bar_w / 2.0, seg_top, bar_w, seg_h,
               Style{.fill = p.series_color(slot[c.label])}, 3.0);
      cum += c.seconds;
    }
    // Total label above the bar (selective direct labeling).
    svg.text(cx, y(cum) - 6.0, util::format("%.0f", cum),
             TextStyle{.size = 11, .fill = p.text_primary,
                       .anchor = Anchor::kMiddle});
    svg.text(cx, margin_top + plot_h + 18.0, b.scenario,
             TextStyle{.size = 12, .fill = p.text_primary,
                       .anchor = Anchor::kMiddle});
  }

  // Legend row.
  double lx = margin_left;
  for (const std::string& label : legend_order) {
    svg.rect(lx, 40.0, 10.0, 10.0, Style{.fill = p.series_color(slot[label])},
             2.0);
    svg.text(lx + 14.0, 49.0, label,
             TextStyle{.size = 10, .fill = p.text_secondary});
    lx += 24.0 + 6.5 * static_cast<double>(label.size());
  }

  // Baseline.
  svg.line(margin_left, margin_top + plot_h, margin_left + plot_w,
           margin_top + plot_h,
           Style{.stroke = p.text_secondary, .stroke_width = 1.0});
  return svg.str();
}

void write_breakdown_svg(const std::vector<trace::TimeBreakdown>& bars,
                         const std::string& path,
                         const BarPlotOptions& options) {
  util::write_file(path, render_breakdown(bars, options));
}

}  // namespace wfr::plot

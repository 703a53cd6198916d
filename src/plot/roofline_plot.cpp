#include "plot/roofline_plot.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "plot/axes.hpp"
#include "plot/svg.hpp"
#include "util/error.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace wfr::plot {

namespace {

using core::Ceiling;
using core::CeilingKind;
using core::Channel;
using core::RooflineModel;

constexpr double kMarginLeft = 72.0;
constexpr double kMarginRight = 26.0;
constexpr double kMarginTop = 46.0;
constexpr double kMarginBottom = 58.0;
// Task-view canvas size.
constexpr double kTaskViewWidth = 780.0;
constexpr double kTaskViewHeight = 560.0;

std::string channel_color(Channel channel, const Palette& p) {
  switch (channel) {
    case Channel::kCompute: return p.series_color(0);   // blue
    case Channel::kDram: return p.series_color(1);      // aqua
    case Channel::kHbm: return p.series_color(4);       // violet
    case Channel::kPcie: return p.series_color(7);      // orange
    case Channel::kNetwork: return p.series_color(3);   // green
    case Channel::kOverhead: return p.series_color(6);  // magenta
    case Channel::kFilesystem: return p.series_color(2);  // yellow
    case Channel::kExternal: return p.series_color(5);  // red
    default: return p.text_secondary;
  }
}

struct Frame {
  LogScale x;
  LogScale y;
  double plot_left, plot_right, plot_top, plot_bottom;
};

// Computes the y domain {min, max} from ceilings, dots and targets, padded
// to decades.
std::pair<double, double> auto_y_domain(const RooflineModel& model,
                                        double x_lo, double x_hi) {
  std::vector<double> values;
  for (const Ceiling& c : model.ceilings()) {
    if (c.kind == CeilingKind::kWall) continue;
    for (double x : {x_lo, x_hi}) {
      const double tps = c.tps_at(x);
      if (std::isfinite(tps) && tps > 0.0) values.push_back(tps);
    }
  }
  for (const core::Dot& d : model.dots()) values.push_back(d.tps);
  if (model.has_targets()) {
    values.push_back(model.target_throughput_tps());
    values.push_back(model.target_makespan_tps(x_lo));
    values.push_back(model.target_makespan_tps(x_hi));
  }
  util::require(!values.empty(), "nothing to plot: model has no ceilings");
  const auto [lo_it, hi_it] = std::minmax_element(values.begin(), values.end());
  // Pad half a decade either side, snapped to decades.
  return {std::pow(10.0, std::floor(std::log10(*lo_it) - 0.5)),
          std::pow(10.0, std::ceil(std::log10(*hi_it) + 0.3))};
}

void draw_axes(SvgDocument& svg, const Frame& f, const Palette& p,
               const std::string& title) {
  // Grid + ticks.
  for (double tx : f.x.decade_ticks()) {
    const double px = f.x(tx);
    svg.line(px, f.plot_top, px, f.plot_bottom,
             Style{.stroke = p.grid, .stroke_width = 1.0});
    svg.text(px, f.plot_bottom + 18.0, tick_label(tx),
             TextStyle{.size = 11, .fill = p.text_secondary,
                       .anchor = Anchor::kMiddle});
  }
  for (double ty : f.y.decade_ticks()) {
    const double py = f.y(ty);
    svg.line(f.plot_left, py, f.plot_right, py,
             Style{.stroke = p.grid, .stroke_width = 1.0});
    svg.text(f.plot_left - 8.0, py + 4.0, tick_label(ty),
             TextStyle{.size = 11, .fill = p.text_secondary,
                       .anchor = Anchor::kEnd});
  }
  // Axis frame (recessive).
  svg.line(f.plot_left, f.plot_bottom, f.plot_right, f.plot_bottom,
           Style{.stroke = p.text_secondary, .stroke_width = 1.0});
  svg.line(f.plot_left, f.plot_top, f.plot_left, f.plot_bottom,
           Style{.stroke = p.text_secondary, .stroke_width = 1.0});
  // Titles.
  svg.text((f.plot_left + f.plot_right) / 2.0, f.plot_bottom + 40.0,
           "Number of Parallel Tasks",
           TextStyle{.size = 13, .fill = p.text_primary,
                     .anchor = Anchor::kMiddle});
  svg.text(20.0, (f.plot_top + f.plot_bottom) / 2.0,
           "Throughput [tasks/s]",
           TextStyle{.size = 13, .fill = p.text_primary,
                     .anchor = Anchor::kMiddle, .rotate = -90.0});
  svg.text(f.plot_left, 26.0, title,
           TextStyle{.size = 15, .fill = p.text_primary,
                     .anchor = Anchor::kStart, .bold = true});
}

// Keeps ceiling labels from stacking on each other.
class LabelPlacer {
 public:
  // Returns a y close to `desired` that is >= 13px from previous labels.
  double place(double desired) {
    double y = desired;
    bool moved = true;
    while (moved) {
      moved = false;
      for (double used : used_) {
        if (std::fabs(used - y) < 13.0) {
          y = used + 13.0;
          moved = true;
        }
      }
    }
    used_.push_back(y);
    return y;
  }

 private:
  std::vector<double> used_;
};

}  // namespace

std::string render_roofline(const RooflineModel& model,
                            const RooflinePlotOptions& options) {
  const Palette& p = default_palette();
  SvgDocument svg(options.width, options.height);
  svg.rect(0, 0, options.width, options.height, Style{.fill = p.surface});

  const int wall = model.parallelism_wall();
  const double x_lo = 1.0;
  const double x_hi = std::max(static_cast<double>(wall) * 2.0, 4.0);

  const auto [y_min, y_max] = auto_y_domain(model, x_lo, x_hi);

  Frame f{
      LogScale(x_lo, x_hi, kMarginLeft, options.width - kMarginRight),
      LogScale(y_min, y_max, options.height - kMarginBottom, kMarginTop),
      kMarginLeft, options.width - kMarginRight, kMarginTop,
      options.height - kMarginBottom};

  const std::string title =
      options.title.empty()
          ? model.workflow().name + " on " + model.system().name
          : options.title;

  // Attainable-boundary samples (x, tps) up to the wall.
  const int kSamples = 96;
  std::vector<std::pair<double, double>> boundary;
  for (int i = 0; i <= kSamples; ++i) {
    const double t = static_cast<double>(i) / kSamples;
    const double x = std::min(
        std::pow(10.0, std::log10(x_lo) +
                           t * (std::log10(static_cast<double>(wall)) -
                                std::log10(x_lo))),
        static_cast<double>(wall));
    boundary.emplace_back(x, model.attainable_tps(x));
  }

  // --- Zone tints (under everything else) -----------------------------------
  if (model.has_targets()) {
    svg.comment("target zones");
    const double y_t = f.y(model.target_throughput_tps());
    // The iso-makespan diagonal is a straight line in pixel space.
    const double x1 = f.x(x_lo), y1 = f.y(model.target_makespan_tps(x_lo));
    const double x2 = f.x(x_hi), y2 = f.y(model.target_makespan_tps(x_hi));
    auto diag_y = [&](double px) {
      return y1 + (px - x1) * (y2 - y1) / (x2 - x1);
    };
    // Clip helper: plot-area corners.
    const double L = f.plot_left, R = f.plot_right, T = f.plot_top,
                 B = f.plot_bottom;
    auto clamp_y = [&](double y) { return std::clamp(y, T, B); };
    // Sample columns and assign each thin column slice to a zone.
    const int cols = 160;
    for (int i = 0; i < cols; ++i) {
      const double px0 = L + (R - L) * i / cols;
      const double px1 = L + (R - L) * (i + 1) / cols;
      const double dy = clamp_y(diag_y((px0 + px1) / 2.0));
      const double ty = clamp_y(y_t);
      const double hi = std::min(dy, ty);   // above both lines
      const double lo = std::max(dy, ty);   // below both lines
      auto band = [&](double top, double bottom, const std::string& color) {
        if (bottom - top > 0.1)
          svg.rect(px0, top, px1 - px0 + 0.5, bottom - top,
                   Style{.fill = color, .opacity = 0.55});
      };
      band(T, hi, p.zone_good_good);
      // Middle band: between the two lines; which zone depends on which
      // line is on top in this column.
      if (dy < ty) {
        band(dy, ty, p.zone_good_poor);  // good makespan, poor throughput
      } else if (ty < dy) {
        band(ty, dy, p.zone_poor_good);  // poor makespan, good throughput
      }
      band(lo, B, p.zone_poor_poor);
    }
  }

  // --- Unattainable region ---------------------------------------------------
  svg.comment("unattainable region");
  std::vector<std::pair<double, double>> poly;
  poly.emplace_back(f.plot_left, f.plot_top);
  poly.emplace_back(f.plot_right, f.plot_top);
  poly.emplace_back(f.plot_right, f.plot_bottom);
  const double wall_px = f.x(static_cast<double>(wall));
  poly.emplace_back(wall_px, f.plot_bottom);
  for (auto it = boundary.rbegin(); it != boundary.rend(); ++it)
    poly.emplace_back(f.x(it->first), f.y(it->second));
  svg.polygon(poly, Style{.fill = p.unattainable, .opacity = 0.45});
  svg.text((wall_px + f.plot_right) / 2.0, (f.plot_top + f.plot_bottom) / 2.0,
           "unattainable",
           TextStyle{.size = 12, .fill = p.text_secondary,
                     .anchor = Anchor::kMiddle, .italic = true});

  draw_axes(svg, f, p, title);

  // --- Ceilings ---------------------------------------------------------------
  LabelPlacer labels;
  svg.comment("ceilings");
  for (const Ceiling& c : model.ceilings()) {
    if (c.kind == CeilingKind::kWall) {
      const double px = f.x(static_cast<double>(c.max_parallel_tasks));
      svg.line(px, f.plot_top, px, f.plot_bottom,
               Style{.stroke = p.wall, .stroke_width = 2.0});
      svg.text(px - 6.0, f.plot_top + 14.0, c.label,
               TextStyle{.size = 11, .fill = p.text_primary,
                         .anchor = Anchor::kEnd});
      continue;
    }
    const std::string color = channel_color(c.channel, p);
    const double tps_lo = c.tps_at(x_lo);
    const double tps_hi = c.tps_at(x_hi);
    if (!std::isfinite(tps_lo) || !std::isfinite(tps_hi)) continue;
    svg.line(f.x(x_lo), f.y(tps_lo), f.x(x_hi), f.y(tps_hi),
             Style{.stroke = color, .stroke_width = 2.0});
    // Horizontal ceilings: label at the right end; diagonals: near the
    // left so they do not pile up at the wall.
    double lx, ly;
    Anchor anchor;
    if (c.kind == CeilingKind::kHorizontal) {
      lx = f.plot_right - 4.0;
      ly = labels.place(f.y(tps_lo) - 5.0);
      anchor = Anchor::kEnd;
    } else {
      lx = f.x(x_lo) + 6.0;
      ly = labels.place(f.y(tps_lo) - 6.0);
      anchor = Anchor::kStart;
    }
    svg.text(lx, ly, c.label,
             TextStyle{.size = 11, .fill = p.text_primary, .anchor = anchor});
  }

  // --- Targets -----------------------------------------------------------------
  if (model.has_targets()) {
    svg.comment("targets");
    const double y_t = f.y(model.target_throughput_tps());
    svg.line(f.plot_left, y_t, f.plot_right, y_t,
             Style{.stroke = p.target, .stroke_width = 1.5, .dash = "7 5"});
    svg.text(f.plot_left + 6.0, y_t - 5.0,
             util::format("Target throughput = %.3g tasks/s",
                          model.target_throughput_tps()),
             TextStyle{.size = 11, .fill = p.text_primary});
    svg.line(f.x(x_lo), f.y(model.target_makespan_tps(x_lo)), f.x(x_hi),
             f.y(model.target_makespan_tps(x_hi)),
             Style{.stroke = p.target, .stroke_width = 1.5, .dash = "2 4"});
    svg.text(
        f.x(x_lo) + 6.0, f.y(model.target_makespan_tps(x_lo)) + 14.0,
        util::format(
            "Target makespan = %s",
            util::format_seconds(
                model.workflow().target_makespan_seconds).c_str()),
        TextStyle{.size = 11, .fill = p.text_primary});
  }

  // --- Dots ---------------------------------------------------------------------
  svg.comment("dots");
  for (const core::Dot& d : model.dots()) {
    const double cx = f.x(d.parallel_tasks);
    const double cy = f.y(d.tps);
    if (d.style == "projected") {
      svg.circle(cx, cy, 6.0,
                 Style{.stroke = p.dot_projected, .stroke_width = 2.0,
                       .fill = p.surface});
    } else if (d.style == "observed") {
      // Simulator operating point: a ringed diamond, visually distinct
      // from both measured (solid) and projected (open) dots.
      svg.circle(cx, cy, 9.0, Style{.fill = p.surface});
      svg.polygon({{cx, cy - 7.0},
                   {cx + 7.0, cy},
                   {cx, cy + 7.0},
                   {cx - 7.0, cy}},
                  Style{.fill = p.dot_observed});
    } else {
      // 2px surface ring so overlapping dots stay distinguishable.
      svg.circle(cx, cy, 8.0, Style{.fill = p.surface});
      svg.circle(cx, cy, 6.0, Style{.fill = p.dot_measured});
    }
    if (!d.label.empty())
      svg.text(cx + 10.0, cy + 4.0, d.label,
               TextStyle{.size = 11, .fill = p.text_primary});
  }

  return svg.str();
}

void write_roofline_svg(const RooflineModel& model, const std::string& path,
                        const RooflinePlotOptions& options) {
  util::write_file(path, render_roofline(model, options));
}

std::string render_task_view(const core::TaskView& view,
                             const TaskViewPlotOptions& options) {
  util::require(!view.empty(), "task view is empty");
  const Palette& p = default_palette();
  SvgDocument svg(kTaskViewWidth, kTaskViewHeight);
  svg.rect(0, 0, kTaskViewWidth, kTaskViewHeight, Style{.fill = p.surface});

  const double x_lo = 1.0;
  const double x_hi = std::max(2.0 * options.parallelism_wall, 4.0);

  // y domain from entry tps and ceiling tps values.
  double lo = 1e300, hi = -1e300;
  for (const core::TaskViewEntry& e : view.entries()) {
    if (e.measured_seconds > 0.0) {
      lo = std::min(lo, e.tps());
      hi = std::max(hi, e.tps());
    }
    if (e.ceiling_seconds > 0.0) {
      lo = std::min(lo, e.ceiling_tps());
      hi = std::max(hi, e.ceiling_tps() * x_hi);
    }
  }
  util::require(lo < hi, "task view has no plottable values");
  const double y_min = std::pow(10.0, std::floor(std::log10(lo) - 0.5));
  const double y_max = std::pow(10.0, std::ceil(std::log10(hi) + 0.3));

  Frame f{LogScale(x_lo, x_hi, kMarginLeft, kTaskViewWidth - kMarginRight),
          LogScale(y_min, y_max, kTaskViewHeight - kMarginBottom, kMarginTop),
          kMarginLeft, kTaskViewWidth - kMarginRight, kMarginTop,
          kTaskViewHeight - kMarginBottom};

  draw_axes(svg, f, p, options.title);

  // Wall.
  const double wall_px = f.x(static_cast<double>(options.parallelism_wall));
  svg.line(wall_px, f.plot_top, wall_px, f.plot_bottom,
           Style{.stroke = p.wall, .stroke_width = 2.0});
  svg.text(wall_px - 6.0, f.plot_top + 14.0,
           util::format("System parallelism @ %d", options.parallelism_wall),
           TextStyle{.size = 11, .fill = p.text_primary, .anchor = Anchor::kEnd});

  // Stable color per group, in first-seen order.
  std::map<std::string, int> group_slot;
  for (const core::TaskViewEntry& e : view.entries())
    if (!group_slot.count(e.group))
      group_slot[e.group] = static_cast<int>(group_slot.size());

  LabelPlacer labels;
  for (const core::TaskViewEntry& e : view.entries()) {
    const std::string color = p.series_color(group_slot[e.group]);
    if (e.ceiling_seconds > 0.0) {
      // The entry's own node ceiling: solid up to the wall, dotted beyond
      // (unreachable due to system parallelism — Fig. 7c's dotted lines).
      const double wall_x = static_cast<double>(options.parallelism_wall);
      svg.line(f.x(x_lo), f.y(e.ceiling_tps()), f.x(wall_x),
               f.y(e.ceiling_tps() * wall_x),
               Style{.stroke = color, .stroke_width = 1.5});
      if (wall_x < x_hi)
        svg.line(f.x(wall_x), f.y(e.ceiling_tps() * wall_x), f.x(x_hi),
                 f.y(e.ceiling_tps() * x_hi),
                 Style{.stroke = color, .stroke_width = 1.5, .dash = "3 4"});
    }
    if (e.measured_seconds > 0.0) {
      const double cx = f.x(1.0);
      const double cy = f.y(e.tps());
      svg.circle(cx, cy, 8.0, Style{.fill = p.surface});
      svg.circle(cx, cy, 6.0, Style{.fill = color});
      svg.text(cx + 10.0, labels.place(cy + 4.0), e.label,
               TextStyle{.size = 11, .fill = p.text_primary});
    }
  }
  return svg.str();
}

void write_task_view_svg(const core::TaskView& view, const std::string& path,
                         const TaskViewPlotOptions& options) {
  util::write_file(path, render_task_view(view, options));
}

}  // namespace wfr::plot

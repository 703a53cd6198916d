#include "plot/ascii.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace wfr::plot {

namespace {

// Maps v in [lo, hi] (log space) to a column/row index in [0, n).
int log_bin(double v, double lo, double hi, int n) {
  const double t = (std::log10(v) - std::log10(lo)) /
                   (std::log10(hi) - std::log10(lo));
  return std::clamp(static_cast<int>(t * (n - 1) + 0.5), 0, n - 1);
}

double bin_value(int i, double lo, double hi, int n) {
  const double t = static_cast<double>(i) / (n - 1);
  return std::pow(10.0, std::log10(lo) + t * (std::log10(hi) - std::log10(lo)));
}

}  // namespace

std::string ascii_roofline(const core::RooflineModel& model) {
  constexpr int W = 72;  // plot columns (not counting the y-axis gutter)
  constexpr int H = 22;  // plot rows

  const int wall = model.parallelism_wall();
  const double x_lo = 1.0;
  const double x_hi = std::max(2.0 * wall, 4.0);

  // y domain from ceilings and dots.
  double lo = 1e300, hi = -1e300;
  for (const core::Ceiling& c : model.ceilings()) {
    if (c.kind == core::CeilingKind::kWall) continue;
    for (double x : {x_lo, x_hi}) {
      const double tps = c.tps_at(x);
      if (std::isfinite(tps) && tps > 0.0) {
        lo = std::min(lo, tps);
        hi = std::max(hi, tps);
      }
    }
  }
  for (const core::Dot& d : model.dots()) {
    lo = std::min(lo, d.tps);
    hi = std::max(hi, d.tps);
  }
  util::require(lo < hi, "model has no plottable ceilings");
  const double y_lo = lo / 3.0;
  const double y_hi = hi * 3.0;

  std::vector<std::string> canvas(static_cast<std::size_t>(H),
                                  std::string(static_cast<std::size_t>(W), ' '));
  auto put = [&](int col, int row, char ch, bool overwrite = true) {
    if (col < 0 || col >= W || row < 0 || row >= H) return;
    char& cell = canvas[static_cast<std::size_t>(H - 1 - row)]
                       [static_cast<std::size_t>(col)];
    if (overwrite || cell == ' ' || cell == '#') cell = ch;
  };

  // Unattainable shading: above the attainable boundary, right of the wall.
  const int wall_col = log_bin(static_cast<double>(wall), x_lo, x_hi, W);
  for (int col = 0; col < W; ++col) {
    const double x = bin_value(col, x_lo, x_hi, W);
    if (col > wall_col) {
      for (int row = 0; row < H; ++row) put(col, row, '#');
      continue;
    }
    const double attainable =
        model.attainable_tps(std::min(x, static_cast<double>(wall)));
    const int boundary_row = log_bin(attainable, y_lo, y_hi, H);
    for (int row = boundary_row + 1; row < H; ++row) put(col, row, '#');
  }

  // Ceilings.
  for (const core::Ceiling& c : model.ceilings()) {
    if (c.kind == core::CeilingKind::kWall) {
      const int col = log_bin(static_cast<double>(c.max_parallel_tasks), x_lo,
                              x_hi, W);
      for (int row = 0; row < H; ++row) put(col, row, '|');
      continue;
    }
    const char glyph = c.kind == core::CeilingKind::kHorizontal ? '-' : '/';
    for (int col = 0; col < W; ++col) {
      const double x = bin_value(col, x_lo, x_hi, W);
      const double tps = c.tps_at(x);
      if (!std::isfinite(tps) || tps <= 0.0) continue;
      if (tps < y_lo || tps > y_hi) continue;
      put(col, log_bin(tps, y_lo, y_hi, H), glyph);
    }
  }

  // Targets.
  if (model.has_targets()) {
    const int row_t = log_bin(model.target_throughput_tps(), y_lo, y_hi, H);
    for (int col = 0; col < W; col += 2) put(col, row_t, '~', false);
  }

  // Dots last so they stay visible.
  for (const core::Dot& d : model.dots()) {
    put(log_bin(d.parallel_tasks, x_lo, x_hi, W),
        log_bin(d.tps, y_lo, y_hi, H), d.style == "projected" ? 'o' : 'O');
  }

  // Assemble with a y gutter.
  std::string out = util::format(
      "%s on %s  [tasks/s vs parallel tasks, log-log]\n",
      model.workflow().name.c_str(), model.system().name.c_str());
  for (int r = 0; r < H; ++r) {
    std::string gutter(10, ' ');
    if (r == 0)
      gutter = util::pad_left(util::format("%.0e ", y_hi), 10);
    else if (r == H - 1)
      gutter = util::pad_left(util::format("%.0e ", y_lo), 10);
    out += gutter + canvas[static_cast<std::size_t>(r)] + "\n";
  }
  out += std::string(10, ' ') + std::string(static_cast<std::size_t>(W), '-') +
         "\n";
  out += std::string(10, ' ') +
         util::pad_right("1", static_cast<std::size_t>(W) - 8) +
         util::format("%.0f\n", x_hi);
  out += "  key: / node diagonal, - system ceiling, | wall, # unattainable, "
         "O measured, o projected, ~ target\n";
  for (const core::Ceiling& c : model.ceilings())
    out += "    " + c.label + "\n";
  for (const core::Dot& d : model.dots())
    out += util::format("    dot %s: P=%g, %.3g tasks/s\n", d.label.c_str(),
                        d.parallel_tasks, d.tps);
  return out;
}

std::string ascii_gantt(const trace::WorkflowTrace& trace) {
  constexpr int width = 64;
  util::require(!trace.empty(), "cannot render an empty trace");
  double t_end = 0.0;
  std::size_t name_w = 4;
  for (const trace::TaskRecord& r : trace.records()) {
    t_end = std::max(t_end, r.end_seconds);
    name_w = std::max(name_w, r.name.size());
  }
  if (t_end <= 0.0) t_end = 1.0;

  auto col = [&](double t) {
    return std::clamp(static_cast<int>(t / t_end * (width - 1) + 0.5), 0,
                      width - 1);
  };

  std::string out;
  std::vector<const trace::TaskRecord*> rows;
  for (const trace::TaskRecord& r : trace.records()) rows.push_back(&r);
  std::stable_sort(rows.begin(), rows.end(),
                   [](const trace::TaskRecord* a, const trace::TaskRecord* b) {
                     return a->start_seconds < b->start_seconds;
                   });
  for (const trace::TaskRecord* r : rows) {
    std::string bar(static_cast<std::size_t>(width), ' ');
    auto fill = [&](double a, double b, char ch) {
      for (int i = col(a); i <= col(b) && i < width; ++i)
        bar[static_cast<std::size_t>(i)] = ch;
    };
    if (r->spans.empty()) {
      fill(r->start_seconds, r->end_seconds, '=');
    } else {
      for (const trace::Span& s : r->spans) {
        const char ch = s.phase == trace::Phase::kWork ? '=' : '#';
        fill(s.start_seconds, s.end_seconds, ch);
      }
    }
    out += util::pad_right(r->name, name_w) + " |" + bar + "|\n";
  }
  out += util::pad_right("", name_w) + " 0" +
         util::pad_left(util::format_seconds(t_end),
                        static_cast<std::size_t>(width)) +
         "\n";
  out += "  key: = work, # I/O or overhead\n";
  return out;
}

}  // namespace wfr::plot

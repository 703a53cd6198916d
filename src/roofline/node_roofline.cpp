#include "roofline/node_roofline.hpp"

#include <algorithm>
#include <cmath>

#include "plot/axes.hpp"
#include "plot/palette.hpp"
#include "plot/svg.hpp"
#include "util/error.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace wfr::roofline {

double KernelSample::arithmetic_intensity() const {
  util::require(bytes > 0.0, "kernel '%s' moved no bytes; AI undefined",
                name.c_str());
  return flops / bytes;
}

double KernelSample::achieved_flops() const {
  util::require(seconds > 0.0,
                "kernel '%s' has no duration; FLOP/s undefined", name.c_str());
  return flops / seconds;
}

const char* kernel_bound_name(KernelBound bound) {
  switch (bound) {
    case KernelBound::kMemoryBound: return "memory-bound";
    case KernelBound::kComputeBound: return "compute-bound";
  }
  return "?";
}

NodeRoofline::NodeRoofline(std::string name, double peak_flops)
    : name_(std::move(name)), peak_flops_(peak_flops) {
  util::require(peak_flops > 0.0, "node roofline needs peak_flops > 0");
}

NodeRoofline NodeRoofline::from_system(const core::SystemSpec& system) {
  NodeRoofline r(system.name + " node", system.node.peak_flops);
  if (system.node.hbm_gbs > 0.0) r.add_bandwidth("HBM", system.node.hbm_gbs);
  if (system.node.dram_gbs > 0.0)
    r.add_bandwidth("DRAM", system.node.dram_gbs);
  if (system.node.pcie_gbs > 0.0)
    r.add_bandwidth("PCIe", system.node.pcie_gbs);
  if (system.node.nic_gbs > 0.0) r.add_bandwidth("NIC", system.node.nic_gbs);
  util::require(!r.bandwidths_.empty(),
                "system '%s' has no node data channels", system.name.c_str());
  return r;
}

void NodeRoofline::add_bandwidth(std::string label, double bytes_per_second) {
  util::require(bytes_per_second > 0.0, "bandwidth must be > 0");
  for (const BandwidthCeiling& b : bandwidths_)
    util::require(b.label != label, "duplicate bandwidth level '%s'",
                  label.c_str());
  bandwidths_.push_back(BandwidthCeiling{std::move(label), bytes_per_second});
}

const BandwidthCeiling& NodeRoofline::top_bandwidth() const {
  util::require(!bandwidths_.empty(), "node roofline has no bandwidths");
  return *std::max_element(bandwidths_.begin(), bandwidths_.end(),
                           [](const BandwidthCeiling& a,
                              const BandwidthCeiling& b) {
                             return a.bytes_per_second < b.bytes_per_second;
                           });
}

double NodeRoofline::attainable_flops(double ai) const {
  util::require(ai > 0.0, "arithmetic intensity must be > 0");
  return std::min(peak_flops_, top_bandwidth().bytes_per_second * ai);
}

double NodeRoofline::ridge_point(const std::string& level) const {
  for (const BandwidthCeiling& b : bandwidths_)
    if (b.label == level) return peak_flops_ / b.bytes_per_second;
  throw util::NotFound("no bandwidth level '" + level + "'");
}

KernelBound NodeRoofline::classify(const KernelSample& kernel) const {
  return kernel.arithmetic_intensity() <
                 ridge_point(top_bandwidth().label)
             ? KernelBound::kMemoryBound
             : KernelBound::kComputeBound;
}

double NodeRoofline::efficiency(const KernelSample& kernel) const {
  return kernel.achieved_flops() /
         attainable_flops(kernel.arithmetic_intensity());
}

void NodeRoofline::add_kernel(KernelSample kernel) {
  util::require(!kernel.name.empty(), "kernel needs a name");
  (void)kernel.arithmetic_intensity();  // validates bytes
  (void)kernel.achieved_flops();        // validates seconds
  kernels_.push_back(std::move(kernel));
}

std::string NodeRoofline::report() const {
  std::string out = util::format("Node Roofline: %s (peak %s)\n",
                                 name_.c_str(),
                                 util::format_flops_rate(peak_flops_).c_str());
  for (const BandwidthCeiling& b : bandwidths_) {
    out += util::format("  %-6s %-12s ridge at %.3g FLOP/B\n",
                        b.label.c_str(),
                        util::format_rate(b.bytes_per_second).c_str(),
                        peak_flops_ / b.bytes_per_second);
  }
  for (const KernelSample& k : kernels_) {
    out += util::format(
        "  kernel %-20s AI=%-8.3g %-14s %3.0f%% of attainable, %s\n",
        k.name.c_str(), k.arithmetic_intensity(),
        util::format_flops_rate(k.achieved_flops()).c_str(),
        100.0 * efficiency(k), kernel_bound_name(classify(k)));
  }
  return out;
}

std::string NodeRoofline::render_svg() const {
  constexpr double width = 720.0, height = 520.0;
  const plot::Palette& p = plot::default_palette();
  plot::SvgDocument svg(width, height);
  svg.rect(0, 0, width, height, plot::Style{.fill = p.surface});

  const double margin_left = 74.0, margin_right = 26.0, margin_top = 46.0,
               margin_bottom = 56.0;

  // Domains: AI spanning the ridge points and kernels, performance up to
  // the peak.
  double ai_lo = 1e300, ai_hi = -1e300, perf_lo = peak_flops_;
  for (const BandwidthCeiling& b : bandwidths_) {
    const double ridge = peak_flops_ / b.bytes_per_second;
    ai_lo = std::min(ai_lo, ridge / 100.0);
    ai_hi = std::max(ai_hi, ridge * 10.0);
    perf_lo = std::min(perf_lo, b.bytes_per_second * (ridge / 100.0));
  }
  for (const KernelSample& k : kernels_) {
    ai_lo = std::min(ai_lo, k.arithmetic_intensity() / 3.0);
    ai_hi = std::max(ai_hi, k.arithmetic_intensity() * 3.0);
    perf_lo = std::min(perf_lo, k.achieved_flops() / 3.0);
  }
  const plot::LogScale x(ai_lo, ai_hi, margin_left, width - margin_right);
  const plot::LogScale y(perf_lo, peak_flops_ * 3.0,
                         height - margin_bottom, margin_top);

  // Grid.
  for (double t : x.decade_ticks()) {
    svg.line(x(t), margin_top, x(t), height - margin_bottom,
             plot::Style{.stroke = p.grid});
    svg.text(x(t), height - margin_bottom + 16.0, plot::tick_label(t),
             plot::TextStyle{.size = 11, .fill = p.text_secondary,
                             .anchor = plot::Anchor::kMiddle});
  }
  for (double t : y.decade_ticks()) {
    svg.line(margin_left, y(t), width - margin_right, y(t),
             plot::Style{.stroke = p.grid});
    svg.text(margin_left - 8.0, y(t) + 4.0, plot::tick_label(t),
             plot::TextStyle{.size = 11, .fill = p.text_secondary,
                             .anchor = plot::Anchor::kEnd});
  }
  svg.text((margin_left + width - margin_right) / 2.0, height - 16.0,
           "Arithmetic Intensity [FLOP/byte]",
           plot::TextStyle{.size = 13, .fill = p.text_primary,
                           .anchor = plot::Anchor::kMiddle});
  svg.text(20.0, height / 2.0, "Performance [FLOP/s]",
           plot::TextStyle{.size = 13, .fill = p.text_primary,
                           .anchor = plot::Anchor::kMiddle, .rotate = -90.0});
  svg.text(margin_left, 26.0, name_,
           plot::TextStyle{.size = 15, .fill = p.text_primary, .bold = true});

  // Compute roof.
  svg.line(x(ai_lo), y(peak_flops_), x(ai_hi), y(peak_flops_),
           plot::Style{.stroke = p.series_color(0), .stroke_width = 2.0});
  svg.text(x(ai_hi) - 6.0, y(peak_flops_) - 6.0,
           "Peak " + util::format_flops_rate(peak_flops_),
           plot::TextStyle{.size = 11, .fill = p.text_primary,
                           .anchor = plot::Anchor::kEnd});

  // Bandwidth diagonals up to their ridge points; each label sits at the
  // log-midpoint of its own diagonal so labels do not stack where all
  // diagonals meet the plot corner.
  int slot = 1;
  std::vector<double> used_label_y;
  for (const BandwidthCeiling& b : bandwidths_) {
    const double ridge = peak_flops_ / b.bytes_per_second;
    const std::string color = p.series_color(slot++);
    svg.line(x(ai_lo), y(b.bytes_per_second * ai_lo), x(ridge),
             y(peak_flops_),
             plot::Style{.stroke = color, .stroke_width = 2.0});
    const double label_ai = std::sqrt(ai_lo * std::min(ridge, ai_hi));
    // Equal-bandwidth levels draw coincident diagonals; stagger their
    // labels downward so both stay readable.
    double label_y = y(b.bytes_per_second * label_ai) - 6.0;
    bool moved = true;
    while (moved) {
      moved = false;
      for (double used : used_label_y) {
        if (std::fabs(used - label_y) < 13.0) {
          label_y = used + 13.0;
          moved = true;
        }
      }
    }
    used_label_y.push_back(label_y);
    svg.text(x(label_ai) + 6.0, label_y,
             b.label + " " + util::format_rate(b.bytes_per_second),
             plot::TextStyle{.size = 11, .fill = p.text_primary});
  }

  // Kernels.
  for (const KernelSample& k : kernels_) {
    const double cx = x(k.arithmetic_intensity());
    const double cy = y(k.achieved_flops());
    svg.circle(cx, cy, 8.0, plot::Style{.fill = p.surface});
    svg.circle(cx, cy, 6.0, plot::Style{.fill = p.dot_measured});
    svg.text(cx + 10.0, cy + 4.0, k.name,
             plot::TextStyle{.size = 11, .fill = p.text_primary});
  }
  return svg.str();
}

void NodeRoofline::write_svg(const std::string& path) const {
  util::write_file(path, render_svg());
}

}  // namespace wfr::roofline

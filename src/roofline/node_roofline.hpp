#pragma once
// The traditional (node-level) Roofline model of Williams et al. — the
// paper's Section III-D "next step in analysis if a workflow is bound by
// node-local performance rather than the global network or filesystem".
//
// Performance [FLOP/s] vs. arithmetic intensity [FLOP/byte], bounded by
// the node's peak compute (horizontal) and one diagonal per memory /
// transfer level (DRAM, HBM, PCIe, NIC).

#include <string>
#include <vector>

#include "core/system_spec.hpp"

namespace wfr::roofline {

/// One measured (or modeled) kernel execution.
struct KernelSample {
  std::string name;
  double flops = 0.0;    // total floating-point operations
  double bytes = 0.0;    // data moved through the level of interest
  double seconds = 0.0;  // wall-clock time

  /// FLOPs per byte; throws when bytes is 0.
  double arithmetic_intensity() const;
  /// Achieved FLOP/s; throws when seconds is 0.
  double achieved_flops() const;
};

/// One bandwidth ceiling of the node roofline.
struct BandwidthCeiling {
  std::string label;      // "DRAM", "HBM", ...
  double bytes_per_second = 0.0;
};

/// The classic classification.
enum class KernelBound { kMemoryBound, kComputeBound };

const char* kernel_bound_name(KernelBound bound);

/// A node-level Roofline: peak compute plus bandwidth ceilings.
class NodeRoofline {
 public:
  /// Requires peak_flops > 0 and at least one bandwidth ceiling later.
  explicit NodeRoofline(std::string name, double peak_flops);

  /// Builds from a SystemSpec node: one ceiling per present channel
  /// (DRAM, HBM, PCIe, NIC).  Throws when the node has no channels.
  static NodeRoofline from_system(const core::SystemSpec& system);

  void add_bandwidth(std::string label, double bytes_per_second);

  /// The highest bandwidth ceiling (the one that defines the knee).
  const BandwidthCeiling& top_bandwidth() const;

  /// Attainable FLOP/s at arithmetic intensity `ai` against the top
  /// bandwidth: min(peak, top_bw * ai).
  double attainable_flops(double ai) const;

  /// The machine-balance point (FLOP/byte) of a level: peak / bandwidth.
  double ridge_point(const std::string& level) const;

  /// Memory- vs compute-bound at the top-level bandwidth.
  KernelBound classify(const KernelSample& kernel) const;

  /// Achieved fraction of attainable performance in (0, 1] for a
  /// well-measured kernel.
  double efficiency(const KernelSample& kernel) const;

  // --- Kernels (dots) --------------------------------------------------------
  void add_kernel(KernelSample kernel);
  const std::vector<KernelSample>& kernels() const { return kernels_; }

  /// Multi-line report: ceilings, ridge points, kernels with verdicts.
  std::string report() const;

  /// Renders the classic log-log roofline (GFLOP/s vs AI) as a 720x520
  /// SVG.
  std::string render_svg() const;
  /// Writes render_svg() to `path`; throws util::Error naming the path
  /// when the write fails.
  void write_svg(const std::string& path) const;

 private:
  std::string name_;
  double peak_flops_;
  std::vector<BandwidthCeiling> bandwidths_;
  std::vector<KernelSample> kernels_;
};

}  // namespace wfr::roofline

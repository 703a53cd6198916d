#include "roofline/node_roofline.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wfr::roofline {
namespace {

NodeRoofline pm_gpu_node() {
  return NodeRoofline::from_system(core::SystemSpec::perlmutter_gpu());
}

TEST(KernelSample, DerivedQuantities) {
  KernelSample k{"gemm", 1e12, 1e10, 0.5};
  EXPECT_DOUBLE_EQ(k.arithmetic_intensity(), 100.0);
  EXPECT_DOUBLE_EQ(k.achieved_flops(), 2e12);
}

TEST(KernelSample, Validation) {
  KernelSample zero_bytes{"k", 1e9, 0.0, 1.0};
  EXPECT_THROW(zero_bytes.arithmetic_intensity(), util::InvalidArgument);
  KernelSample zero_time{"k", 1e9, 1e9, 0.0};
  EXPECT_THROW(zero_time.achieved_flops(), util::InvalidArgument);
}

TEST(NodeRoofline, FromSystemPicksUpChannels) {
  const NodeRoofline r = pm_gpu_node();
  EXPECT_DOUBLE_EQ(r.attainable_flops(1e6), 38.8e12);  // compute-bound
  for (const char* level : {"HBM", "DRAM", "PCIe", "NIC"})
    EXPECT_NO_THROW(r.ridge_point(level)) << level;
  EXPECT_EQ(r.top_bandwidth().label, "HBM");
}

TEST(NodeRoofline, FromSystemRequiresChannels) {
  core::SystemSpec bare;
  bare.node.peak_flops = 1e12;
  EXPECT_THROW(NodeRoofline::from_system(bare), util::InvalidArgument);
}

TEST(NodeRoofline, RidgePoints) {
  const NodeRoofline r = pm_gpu_node();
  // A100 HBM: 38.8 TF / 6.22 TB/s = ~6.2 FLOP/B.
  EXPECT_NEAR(r.ridge_point("HBM"), 38.8e12 / (4.0 * 1555e9), 1e-9);
  EXPECT_GT(r.ridge_point("PCIe"), r.ridge_point("HBM"));
  EXPECT_THROW(r.ridge_point("L1"), util::NotFound);
}

TEST(NodeRoofline, AttainableFollowsMinRule) {
  const NodeRoofline r = pm_gpu_node();
  const double ridge = r.ridge_point("HBM");
  // Below the ridge: bandwidth-limited.
  EXPECT_NEAR(r.attainable_flops(ridge / 2.0), 38.8e12 / 2.0, 1e0);
  // Above: compute-limited.
  EXPECT_DOUBLE_EQ(r.attainable_flops(ridge * 10.0), 38.8e12);
  EXPECT_THROW(r.attainable_flops(0.0), util::InvalidArgument);
}

TEST(NodeRoofline, Classification) {
  const NodeRoofline r = pm_gpu_node();
  KernelSample streamy{"stream", 1e12, 1e12, 1.0};  // AI = 1
  EXPECT_EQ(r.classify(streamy), KernelBound::kMemoryBound);
  KernelSample gemmy{"gemm", 1e14, 1e12, 10.0};  // AI = 100
  EXPECT_EQ(r.classify(gemmy), KernelBound::kComputeBound);
}

TEST(NodeRoofline, EfficiencyAgainstAttainable) {
  const NodeRoofline r = pm_gpu_node();
  // A compute-bound kernel at half of peak.
  KernelSample k{"k", 38.8e12 / 2.0, 1e9, 1.0};
  EXPECT_NEAR(r.efficiency(k), 0.5, 1e-9);
}

TEST(NodeRoofline, DuplicateLevelRejected) {
  NodeRoofline r("x", 1e12);
  r.add_bandwidth("DRAM", 1e11);
  EXPECT_THROW(r.add_bandwidth("DRAM", 2e11), util::InvalidArgument);
  EXPECT_THROW(r.add_bandwidth("L2", 0.0), util::InvalidArgument);
}

TEST(NodeRoofline, KernelValidationOnAdd) {
  NodeRoofline r("x", 1e12);
  r.add_bandwidth("DRAM", 1e11);
  EXPECT_THROW(r.add_kernel(KernelSample{"", 1.0, 1.0, 1.0}),
               util::InvalidArgument);
  EXPECT_THROW(r.add_kernel(KernelSample{"k", 1.0, 0.0, 1.0}),
               util::InvalidArgument);
}

TEST(NodeRoofline, ReportMentionsKernelsAndVerdicts) {
  NodeRoofline r = pm_gpu_node();
  r.add_kernel(KernelSample{"epsilon", 18.2e15, 3.2e12, 1400.0});
  const std::string report = r.report();
  EXPECT_NE(report.find("epsilon"), std::string::npos);
  EXPECT_NE(report.find("ridge"), std::string::npos);
  EXPECT_NE(report.find("bound"), std::string::npos);
}

TEST(NodeRoofline, SvgRendering) {
  NodeRoofline r = pm_gpu_node();
  r.add_kernel(KernelSample{"k", 1e13, 1e12, 1.0});
  const std::string svg = r.render_svg();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("Arithmetic Intensity"), std::string::npos);
  EXPECT_NE(svg.find("Peak"), std::string::npos);
  EXPECT_NE(svg.find(">k<"), std::string::npos);
}

}  // namespace
}  // namespace wfr::roofline

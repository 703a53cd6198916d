#include "core/model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/units.hpp"

namespace wfr::core {
namespace {

// The paper's BGW characterization at 64 nodes per task (Fig. 7a).
WorkflowCharacterization bgw_64() {
  WorkflowCharacterization c;
  c.name = "bgw-64";
  c.total_tasks = 2;
  c.parallel_tasks = 1;
  c.nodes_per_task = 64;
  c.flops_per_node = (1164e15 + 3226e15) / 64.0;  // ~68.6 PFLOP/node
  c.network_bytes_per_task = 2676e9 * 64.0;       // ~171 TB total
  c.fs_bytes_per_task = 35e9;                     // 70 GB over 2 tasks
  c.makespan_seconds = 4184.86;
  return c;
}

// LCLS on Cori-HSW, good day (Fig. 5a).
WorkflowCharacterization lcls_good_day() {
  WorkflowCharacterization c;
  c.name = "lcls-good";
  c.total_tasks = 6;
  c.parallel_tasks = 5;
  c.nodes_per_task = 32;
  c.dram_bytes_per_node = 32e9;
  c.external_bytes_per_task = 5e12 / 6.0;
  c.fs_bytes_per_task = 5e12 / 6.0;  // staged through the burst buffer
  c.makespan_seconds = 17.0 * 60.0;
  c.target_makespan_seconds = 600.0;
  return c;
}

TEST(Ceiling, DiagonalScalesWithParallelism) {
  const Ceiling c = Ceiling::diagonal(Channel::kCompute, "c", 10.0);
  EXPECT_DOUBLE_EQ(c.tps_at(1.0), 0.1);
  EXPECT_DOUBLE_EQ(c.tps_at(28.0), 2.8);
}

TEST(Ceiling, HorizontalIsFlat) {
  const Ceiling c = Ceiling::horizontal(Channel::kFilesystem, "c", 0.005);
  EXPECT_DOUBLE_EQ(c.tps_at(1.0), 0.005);
  EXPECT_DOUBLE_EQ(c.tps_at(100.0), 0.005);
}

TEST(Ceiling, WallDoesNotBoundThroughput) {
  const Ceiling c = Ceiling::wall("w", 28);
  EXPECT_TRUE(std::isinf(c.tps_at(5.0)));
}

TEST(Ceiling, FactoriesValidate) {
  EXPECT_THROW(Ceiling::diagonal(Channel::kCompute, "x", -1.0),
               util::InvalidArgument);
  EXPECT_THROW(Ceiling::horizontal(Channel::kFilesystem, "x", 0.0),
               util::InvalidArgument);
  EXPECT_THROW(Ceiling::wall("x", 0), util::InvalidArgument);
}

TEST(ChannelHelpers, NamesAndNodeClassification) {
  EXPECT_STREQ(channel_name(Channel::kHbm), "hbm");
  EXPECT_TRUE(is_node_channel(Channel::kCompute));
  EXPECT_TRUE(is_node_channel(Channel::kNetwork));
  EXPECT_FALSE(is_node_channel(Channel::kFilesystem));
  EXPECT_FALSE(is_node_channel(Channel::kOverhead));
  EXPECT_FALSE(is_node_channel(Channel::kParallelism));
}

TEST(BuildModel, BgwCeilingSetMatchesPaper) {
  const RooflineModel model =
      build_model(SystemSpec::perlmutter_gpu(), bgw_64());
  // Wall at 28 (1792 / 64).
  EXPECT_EQ(model.parallelism_wall(), 28);
  // Compute ceiling: ~68.6 PFLOP/node at 38.8 TFLOP/s -> ~1768 s/task,
  // the paper rounds this to "1800 s".
  const Ceiling& compute = model.binding_ceiling(1.0);
  EXPECT_EQ(compute.channel, Channel::kCompute);
  EXPECT_NEAR(compute.seconds_per_task, 1768.0, 2.0);
}

TEST(BuildModel, BgwEfficiencyMatchesPaper42Percent) {
  RooflineModel model = build_model(SystemSpec::perlmutter_gpu(), bgw_64());
  ASSERT_EQ(model.dots().size(), 1u);  // measured dot added automatically
  // The paper reports 42% of node peak at 64 nodes/task.
  EXPECT_NEAR(model.efficiency(model.dots()[0]), 0.42, 0.01);
  EXPECT_EQ(model.classify(model.dots()[0]), BoundClass::kNodeBound);
}

TEST(BuildModel, Bgw1024Efficiency) {
  WorkflowCharacterization c = bgw_64();
  c.name = "bgw-1024";
  c.nodes_per_task = 1024;
  c.flops_per_node = (1164e15 + 3226e15) / 1024.0;
  c.network_bytes_per_task = 168e9 * 1024.0;
  c.makespan_seconds = 404.74;
  const RooflineModel model =
      build_model(SystemSpec::perlmutter_gpu(), c);
  EXPECT_EQ(model.parallelism_wall(), 1);
  // ~110.5 s compute ceiling vs 404.74 s measured: ~27-30% of peak.
  EXPECT_NEAR(model.efficiency(model.dots()[0]), 0.27, 0.02);
}

TEST(BuildModel, LclsIsSystemExternalBound) {
  const RooflineModel model =
      build_model(SystemSpec::cori_haswell(), lcls_good_day());
  ASSERT_EQ(model.dots().size(), 1u);
  // 5 GB/s aggregate external on Cori-HSW in our preset is 1 GB/s; adjust
  // the system to the paper's good-day aggregate of 5 GB/s.
  SystemSpec good = SystemSpec::cori_haswell();
  good.external_gbs = 5e9;
  const RooflineModel good_model = build_model(good, lcls_good_day());
  const Dot& dot = good_model.dots()[0];
  EXPECT_EQ(good_model.classify(dot), BoundClass::kSystemBound);
  EXPECT_EQ(good_model.binding_ceiling(dot.parallel_tasks).channel,
            Channel::kExternal);
  // The dot rides its ceiling (the paper: "overlapped with the boundary").
  EXPECT_GT(good_model.efficiency(dot), 0.9);
}

TEST(BuildModel, LclsZonesAgainstTargets) {
  SystemSpec good = SystemSpec::cori_haswell();
  good.external_gbs = 5e9;
  const RooflineModel model = build_model(good, lcls_good_day());
  const Dot& dot = model.dots()[0];
  // 17 min against a 10 min target: both makespan and throughput missed.
  EXPECT_EQ(model.zone_of(dot), Zone::kPoorMakespanPoorThroughput);
  // The external ceiling is below the target: the target is unattainable.
  EXPECT_LT(model.attainable_tps(5.0), model.target_throughput_tps());
}

TEST(BuildModel, TargetLinesCrossAtWorkflowParallelism) {
  SystemSpec good = SystemSpec::cori_haswell();
  good.external_gbs = 5e9;
  const RooflineModel model = build_model(good, lcls_good_day());
  // At the workflow's own P the iso-makespan diagonal equals the
  // throughput target line.
  EXPECT_NEAR(model.target_makespan_tps(5.0), model.target_throughput_tps(),
              1e-12);
  // The makespan diagonal doubles with P.
  EXPECT_NEAR(model.target_makespan_tps(10.0),
              2.0 * model.target_throughput_tps(), 1e-12);
}

TEST(BuildModel, MissingChannelThrows) {
  WorkflowCharacterization c = bgw_64();
  c.hbm_bytes_per_node = 1e9;
  SystemSpec s = SystemSpec::perlmutter_cpu();  // no HBM
  EXPECT_THROW(build_model(s, c), util::InvalidArgument);
}

TEST(BuildModel, OversizedTaskThrows) {
  WorkflowCharacterization c = bgw_64();
  c.nodes_per_task = 4000;  // larger than Perlmutter GPU
  EXPECT_THROW(build_model(SystemSpec::perlmutter_gpu(), c),
               util::InvalidArgument);
}

/// The message compute_ceilings throws for `s` and `c`, or "" when none.
std::string ceilings_error(const SystemSpec& s,
                           const WorkflowCharacterization& c) {
  std::vector<CeilingSpec> specs;
  try {
    compute_ceilings(s, c, specs);
  } catch (const util::InvalidArgument& e) {
    return e.what();
  }
  return "";
}

// A rate so small that volume / rate overflows would put a bare inf into
// slot_seconds and the campaign makespan; compute_ceilings, which
// build_model and both sweep paths call, rejects it naming the workflow,
// the channel and the system.
TEST(ComputeCeilings, RejectsNonFiniteSecondsPerTask) {
  SystemSpec s = SystemSpec::perlmutter_gpu();
  s.node.peak_flops = 1e-300;
  EXPECT_EQ(ceilings_error(s, bgw_64()),
            "workflow 'bgw-64' needs inf s per task of flops on system "
            "'perlmutter-gpu'; it must be finite and > 0");
  s = SystemSpec::perlmutter_gpu();
  s.fs_gbs = 1e-300;
  EXPECT_NE(ceilings_error(s, bgw_64()).find("of filesystem on system"),
            std::string::npos);
  // An underflow to 0 s per task is rejected the same way.
  s = SystemSpec::perlmutter_gpu();
  WorkflowCharacterization c = bgw_64();
  c.fs_bytes_per_task = 1e-300;
  s.fs_gbs = 1e300;
  EXPECT_NE(ceilings_error(s, c).find("needs 0 s per task of filesystem"),
            std::string::npos);
  EXPECT_THROW(build_model(s, c), util::InvalidArgument);
}

TEST(ComputeCeilings, RejectsNonFiniteHorizontalLimit) {
  // 1e-10 B over 1e300 B/s is a subnormal 1e-310 s per task: finite and
  // positive, but its reciprocal overflows to an infinite tasks/s limit.
  SystemSpec s = SystemSpec::perlmutter_gpu();
  s.external_gbs = 1e300;
  WorkflowCharacterization c = bgw_64();
  c.external_bytes_per_task = 1e-10;
  EXPECT_EQ(ceilings_error(s, c),
            "workflow 'bgw-64' on system 'perlmutter-gpu': its external "
            "ceiling of inf tasks/s must be finite and > 0");
  EXPECT_THROW(build_model(s, c), util::InvalidArgument);
  // The unchanged inputs still build.
  EXPECT_EQ(ceilings_error(SystemSpec::perlmutter_gpu(), bgw_64()), "");
}

TEST(Model, AttainableThroughputRespectsWall) {
  const RooflineModel model =
      build_model(SystemSpec::perlmutter_gpu(), bgw_64());
  EXPECT_NO_THROW(model.attainable_tps(28.0));
  EXPECT_THROW(model.attainable_tps(29.0), util::InvalidArgument);
  EXPECT_THROW(model.attainable_tps(0.5), util::InvalidArgument);
}

TEST(Model, AttainableIsMonotoneUpToSystemCeilings) {
  SystemSpec good = SystemSpec::cori_haswell();
  good.external_gbs = 5e9;
  const RooflineModel model = build_model(good, lcls_good_day());
  double prev = 0.0;
  for (int p = 1; p <= 74; ++p) {
    const double tps = model.attainable_tps(p);
    EXPECT_GE(tps, prev);
    prev = tps;
  }
  // System-bound: attainable flattens at the external ceiling.
  EXPECT_DOUBLE_EQ(model.attainable_tps(74.0), model.attainable_tps(10.0));
}

TEST(Model, ControlFlowBoundClassification) {
  WorkflowCharacterization c;
  c.name = "gptune-like";
  c.total_tasks = 40;
  c.parallel_tasks = 1;
  c.nodes_per_task = 1;
  c.overhead_seconds_per_task = 12.0;
  c.dram_bytes_per_node = 3344e6;
  c.fs_bytes_per_task = 45e6 / 40.0;
  c.makespan_seconds = 553.0;
  const RooflineModel model = build_model(SystemSpec::perlmutter_cpu(), c);
  const Dot& dot = model.dots()[0];
  EXPECT_EQ(model.classify(dot), BoundClass::kControlFlowBound);
  EXPECT_EQ(model.binding_ceiling(1.0).channel, Channel::kOverhead);
}

TEST(Model, ParallelismBoundClassification) {
  // A dot parked at the wall, close to its ceilings.
  WorkflowCharacterization c;
  c.name = "wide";
  c.total_tasks = 28;
  c.parallel_tasks = 28;
  c.nodes_per_task = 64;
  c.flops_per_node = 38.8e12 * 100.0;  // 100 s/task ceiling
  c.makespan_seconds = 110.0;          // 28 tasks in 110 s: ~91% of peak
  RooflineModel model = build_model(SystemSpec::perlmutter_gpu(), c);
  EXPECT_EQ(model.classify(model.dots()[0]), BoundClass::kParallelismBound);
}

TEST(Model, CustomCeilingParticipates) {
  RooflineModel model = build_model(SystemSpec::perlmutter_gpu(), bgw_64());
  model.add_ceiling(
      Ceiling::horizontal(Channel::kCustom, "fabric cap", 1e-6));
  EXPECT_DOUBLE_EQ(model.attainable_tps(1.0), 1e-6);
}

TEST(Model, ReportMentionsKeyFacts) {
  SystemSpec good = SystemSpec::cori_haswell();
  good.external_gbs = 5e9;
  const RooflineModel model = build_model(good, lcls_good_day());
  const std::string r = model.report();
  EXPECT_NE(r.find("lcls-good"), std::string::npos);
  EXPECT_NE(r.find("System External"), std::string::npos);
  EXPECT_NE(r.find("system-bound"), std::string::npos);
  EXPECT_NE(r.find("zone"), std::string::npos);
}

// Every channel demanded, on a system that provides each: the exact label
// build_model (through ceiling_label) attaches to all nine ceilings.
TEST(CeilingLabel, PinsEveryChannelsText) {
  SystemSpec s;
  s.name = "every-channel";
  s.total_nodes = 1792;
  s.node.peak_flops = 38.8e12;
  s.node.dram_gbs = 204.8e9;
  s.node.hbm_gbs = 1.5e12;
  s.node.pcie_gbs = 25e9;
  s.node.nic_gbs = 25e9;
  s.fs_gbs = 5.6e12;
  s.external_gbs = 10e9;
  WorkflowCharacterization w;
  w.name = "every-channel";
  w.total_tasks = 8;
  w.parallel_tasks = 4;
  w.nodes_per_task = 4;
  w.flops_per_node = 1164e15;
  w.dram_bytes_per_node = 32e9;
  w.hbm_bytes_per_node = 70e9;
  w.pcie_bytes_per_node = 45e6;
  w.network_bytes_per_task = 2676e9;
  w.overhead_seconds_per_task = 0.02;
  w.fs_bytes_per_task = 35e9;
  w.external_bytes_per_task = 5e12 / 6.0;

  const RooflineModel model = build_model(s, w);
  std::vector<std::string> labels;
  for (const Ceiling& c : model.ceilings()) {
    labels.push_back(c.label);
    EXPECT_EQ(ceiling_label(c, s, w), c.label);
  }
  EXPECT_EQ(labels, (std::vector<std::string>{
                        "Compute 1.16 EFLOP @ 38.8 TFLOP/s",
                        "CPU Bytes 32 GB @ 205 GB/s",
                        "HBM Bytes 70 GB @ 1.5 TB/s",
                        "PCIe Bytes 45 MB @ 25 GB/s",
                        "Network 2.68 TB @ 4 x 25 GB/s",
                        "Control-flow overhead 20 ms/task",
                        "File System 35 GB @ 5.6 TB/s",
                        "System External 833 GB @ 10 GB/s",
                        "System parallelism @ 448 tasks",
                    }));

  // The overhead label in each format_seconds unit.
  const std::pair<double, const char*> overheads[] = {
      {250e-6, "Control-flow overhead 250 us/task"},
      {0.02, "Control-flow overhead 20 ms/task"},
      {45.0, "Control-flow overhead 45 s/task"},
      {17.0 * 60.0, "Control-flow overhead 17 min/task"},
      {2.5 * 3600.0, "Control-flow overhead 2.5 h/task"},
  };
  for (const auto& [seconds, label] : overheads) {
    w.overhead_seconds_per_task = seconds;
    const Ceiling overhead = build_model(s, w).ceilings().at(5);
    ASSERT_EQ(overhead.channel, Channel::kOverhead);
    EXPECT_EQ(overhead.label, label);
  }
}

TEST(Model, ZoneNamesAreDistinct) {
  EXPECT_STRNE(zone_name(Zone::kGoodMakespanGoodThroughput),
               zone_name(Zone::kPoorMakespanPoorThroughput));
  EXPECT_STRNE(bound_class_name(BoundClass::kNodeBound),
               bound_class_name(BoundClass::kSystemBound));
}

}  // namespace
}  // namespace wfr::core

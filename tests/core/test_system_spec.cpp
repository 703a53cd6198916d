#include "core/system_spec.hpp"

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/units.hpp"

namespace wfr::core {
namespace {

TEST(SystemSpec, PerlmutterGpuPeaks) {
  const SystemSpec s = SystemSpec::perlmutter_gpu();
  EXPECT_EQ(s.total_nodes, 1792);
  EXPECT_DOUBLE_EQ(s.node.peak_flops, 38.8e12);
  EXPECT_DOUBLE_EQ(s.fs_gbs, 5.6e12);
  EXPECT_DOUBLE_EQ(s.node.nic_gbs, 100e9);
}

TEST(SystemSpec, ParallelismWallArithmeticFromPaper) {
  const SystemSpec gpu = SystemSpec::perlmutter_gpu();
  EXPECT_EQ(gpu.parallelism_wall(64), 28);    // Fig. 1 / Fig. 7a
  EXPECT_EQ(gpu.parallelism_wall(1024), 1);   // Fig. 7b
  EXPECT_EQ(gpu.parallelism_wall(128), 14);
  const SystemSpec cpu = SystemSpec::perlmutter_cpu();
  EXPECT_EQ(cpu.parallelism_wall(8), 384);    // Fig. 6 LCLS on PM-CPU
  EXPECT_EQ(cpu.parallelism_wall(1), 3072);   // Fig. 10a GPTune
  const SystemSpec hsw = SystemSpec::cori_haswell();
  EXPECT_EQ(hsw.parallelism_wall(32), 74);    // Fig. 5a LCLS on Cori-HSW
}

TEST(SystemSpec, ParallelismWallValidatesInput) {
  const SystemSpec s = SystemSpec::perlmutter_gpu();
  EXPECT_THROW(s.parallelism_wall(0), util::InvalidArgument);
}

TEST(SystemSpec, MachineRoundTrip) {
  const SystemSpec s = SystemSpec::perlmutter_gpu();
  const SystemSpec back = SystemSpec::from_machine(s.to_machine());
  EXPECT_EQ(back.name, s.name);
  EXPECT_EQ(back.total_nodes, s.total_nodes);
  EXPECT_DOUBLE_EQ(back.node.peak_flops, s.node.peak_flops);
  EXPECT_DOUBLE_EQ(back.node.hbm_gbs, s.node.hbm_gbs);
  EXPECT_DOUBLE_EQ(back.fs_gbs, s.fs_gbs);
  EXPECT_DOUBLE_EQ(back.external_gbs, s.external_gbs);
}

TEST(SystemSpec, JsonRoundTrip) {
  const SystemSpec s = SystemSpec::perlmutter_cpu();
  const SystemSpec back = SystemSpec::from_json(s.to_json());
  EXPECT_EQ(back.name, s.name);
  EXPECT_EQ(back.total_nodes, s.total_nodes);
  EXPECT_DOUBLE_EQ(back.node.dram_gbs, s.node.dram_gbs);
  EXPECT_DOUBLE_EQ(back.fs_gbs, s.fs_gbs);
}

TEST(SystemSpec, JsonAcceptsUnitStrings) {
  const SystemSpec s = SystemSpec::from_json(util::Json::parse(R"({
    "name": "custom",
    "total_nodes": 100,
    "node": {"peak_flops": 5e12, "dram_gbs": "200 GB/s", "nic_gbs": "25 GB/s"},
    "fs_gbs": "1 TB/s",
    "external_gbs": "5 GB/s"
  })"));
  EXPECT_DOUBLE_EQ(s.node.dram_gbs, 200e9);
  EXPECT_DOUBLE_EQ(s.fs_gbs, 1e12);
  EXPECT_DOUBLE_EQ(s.external_gbs, 5e9);
  EXPECT_DOUBLE_EQ(s.node.hbm_gbs, 0.0);  // omitted channels default to 0
}

TEST(SystemSpec, JsonRequiresPeakFlops) {
  EXPECT_THROW(SystemSpec::from_json(util::Json::parse(
                   R"({"total_nodes": 1, "node": {}})")),
               util::InvalidArgument);
}

TEST(SystemSpec, ValidationRejectsNegativeRates) {
  SystemSpec s = SystemSpec::perlmutter_gpu();
  s.node.pcie_gbs = -1.0;
  EXPECT_THROW(s.validate(), util::InvalidArgument);
  s = SystemSpec::perlmutter_gpu();
  s.total_nodes = 0;
  EXPECT_THROW(s.validate(), util::InvalidArgument);
}

TEST(SystemSpec, ValidationRejectsNonFiniteRates) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double SystemSpec::*field :
       {&SystemSpec::fs_gbs, &SystemSpec::external_gbs}) {
    for (const double bad : {inf, nan}) {
      SystemSpec s = SystemSpec::perlmutter_gpu();
      s.*field = bad;
      EXPECT_THROW(s.validate(), util::InvalidArgument);
    }
  }
  SystemSpec s = SystemSpec::perlmutter_gpu();
  s.node.nic_gbs = inf;
  try {
    s.validate();
    FAIL() << "expected InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("node.nic_gbs must be finite"),
              std::string::npos)
        << e.what();
  }
  s = SystemSpec::perlmutter_gpu();
  s.node.peak_flops = inf;
  EXPECT_THROW(s.validate(), util::InvalidArgument);
}

}  // namespace
}  // namespace wfr::core

#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/error.hpp"
#include "util/units.hpp"

namespace wfr::sim {
namespace {

TEST(Machine, PerlmutterGpuMatchesPaperAppendix) {
  const MachineConfig m = perlmutter_gpu();
  EXPECT_EQ(m.total_nodes, 1792);
  EXPECT_DOUBLE_EQ(m.node_flops, 38.8 * util::kTFLOPS);
  EXPECT_DOUBLE_EQ(m.hbm_gbs, 4.0 * 1555.0 * util::kGBs);
  EXPECT_DOUBLE_EQ(m.pcie_gbs, 100.0 * util::kGBs);
  EXPECT_DOUBLE_EQ(m.nic_gbs, 100.0 * util::kGBs);
  EXPECT_DOUBLE_EQ(m.fs_gbs, 5.6 * util::kTBs);
  EXPECT_NO_THROW(m.validate());
}

TEST(Machine, PerlmutterCpuMatchesPaperAppendix) {
  const MachineConfig m = perlmutter_cpu();
  EXPECT_EQ(m.total_nodes, 3072);
  EXPECT_DOUBLE_EQ(m.node_flops, 5.0 * util::kTFLOPS);
  EXPECT_DOUBLE_EQ(m.dram_gbs, 2.0 * 204.8 * util::kGBs);
  EXPECT_DOUBLE_EQ(m.fs_gbs, 4.8 * util::kTBs);
  EXPECT_DOUBLE_EQ(m.external_gbs, 25.0 * util::kGBs);
  EXPECT_DOUBLE_EQ(m.hbm_gbs, 0.0);  // no GPUs on the CPU partition
}

TEST(Machine, CoriHaswellMatchesPaperAppendix) {
  const MachineConfig m = cori_haswell();
  EXPECT_EQ(m.total_nodes, 2388);
  EXPECT_DOUBLE_EQ(m.dram_gbs, 129.0 * util::kGBs);
  EXPECT_DOUBLE_EQ(m.fs_gbs, 910.0 * util::kGBs);
  EXPECT_DOUBLE_EQ(m.external_gbs, 1.0 * util::kGBs);
}

TEST(Machine, ValidationRejectsBadConfigs) {
  MachineConfig m = perlmutter_gpu();
  m.total_nodes = 0;
  EXPECT_THROW(m.validate(), util::InvalidArgument);
  m = perlmutter_gpu();
  m.fs_gbs = -1.0;
  EXPECT_THROW(m.validate(), util::InvalidArgument);
  m = perlmutter_gpu();
  m.fs_gbs = std::numeric_limits<double>::infinity();
  EXPECT_THROW(m.validate(), util::InvalidArgument);
  m = perlmutter_gpu();
  m.node_flops = std::numeric_limits<double>::infinity();
  EXPECT_THROW(m.validate(), util::InvalidArgument);
  m = perlmutter_gpu();
  m.external_gbs = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(m.validate(), util::InvalidArgument);
}

}  // namespace
}  // namespace wfr::sim

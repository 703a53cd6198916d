#include "trace/counters.hpp"

#include <gtest/gtest.h>

#include "util/units.hpp"

namespace wfr::trace {
namespace {

TEST(ChannelCounters, DefaultIsZero) {
  ChannelCounters c;
  EXPECT_DOUBLE_EQ(c.fs_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(c.external_in_bytes + c.network_bytes + c.flops +
                       c.dram_bytes + c.hbm_bytes + c.pcie_bytes,
                   0.0);
}

TEST(ChannelCounters, AdditionAccumulates) {
  ChannelCounters a, b;
  a.external_in_bytes = 1e12;
  a.flops = 5e15;
  b.external_in_bytes = 2e12;
  b.network_bytes = 7e9;
  a += b;
  EXPECT_DOUBLE_EQ(a.external_in_bytes, 3e12);
  EXPECT_DOUBLE_EQ(a.flops, 5e15);
  EXPECT_DOUBLE_EQ(a.network_bytes, 7e9);
}

TEST(CountersFromDemand, NodeFieldsScaleWithNodes) {
  dag::ResourceDemand d;
  d.flops_per_node = 69e15;       // BGW at 64 nodes
  d.dram_bytes_per_node = 32e9;
  d.hbm_bytes_per_node = 1e9;
  d.pcie_bytes_per_node = 80e9;
  const ChannelCounters c = counters_from_demand(d, 64);
  EXPECT_DOUBLE_EQ(c.flops, 69e15 * 64);
  EXPECT_DOUBLE_EQ(c.dram_bytes, 32e9 * 64);
  EXPECT_DOUBLE_EQ(c.hbm_bytes, 64e9);
  EXPECT_DOUBLE_EQ(c.pcie_bytes, 80e9 * 64);
}

TEST(CountersFromDemand, SystemFieldsAreTotals) {
  dag::ResourceDemand d;
  d.external_in_bytes = 1e12;
  d.fs_read_bytes = 70e9;
  d.fs_write_bytes = 1e9;
  d.network_bytes = 168e9;
  const ChannelCounters c = counters_from_demand(d, 128);
  EXPECT_DOUBLE_EQ(c.external_in_bytes, 1e12);
  EXPECT_DOUBLE_EQ(c.fs_read_bytes, 70e9);
  EXPECT_DOUBLE_EQ(c.fs_write_bytes, 1e9);
  EXPECT_DOUBLE_EQ(c.network_bytes, 168e9);
}

TEST(Describe, MentionsNonZeroChannelsOnly) {
  ChannelCounters c;
  c.external_in_bytes = 5e12;
  c.flops = 100e9;
  const std::string s = describe(c);
  EXPECT_NE(s.find("ext=5 TB"), std::string::npos);
  EXPECT_NE(s.find("flops=100 GFLOP"), std::string::npos);
  EXPECT_EQ(s.find("net="), std::string::npos);
}

TEST(Describe, EmptyCounters) {
  EXPECT_EQ(describe(ChannelCounters{}), "(no traffic)");
}

}  // namespace
}  // namespace wfr::trace

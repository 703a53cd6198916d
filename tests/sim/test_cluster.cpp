#include "sim/cluster.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wfr::sim {
namespace {

TEST(Cluster, StartsAllFree) {
  Cluster c(100);
  EXPECT_EQ(c.total_nodes(), 100);
  EXPECT_EQ(c.free_nodes(), 100);
}

TEST(Cluster, RejectsEmptyCluster) {
  EXPECT_THROW(Cluster(0), util::InvalidArgument);
}

TEST(Cluster, AllocateAndRelease) {
  Cluster c(10);
  EXPECT_TRUE(c.try_allocate(6));
  EXPECT_EQ(c.free_nodes(), 4);
  EXPECT_FALSE(c.try_allocate(5));
  EXPECT_TRUE(c.try_allocate(4));
  EXPECT_EQ(c.free_nodes(), 0);
  c.release(6);
  EXPECT_EQ(c.free_nodes(), 6);
}

TEST(Cluster, OversizedRequestThrows) {
  Cluster c(10);
  EXPECT_THROW(c.try_allocate(11), util::InvalidArgument);
  EXPECT_THROW(c.try_allocate(0), util::InvalidArgument);
}

TEST(Cluster, OverReleaseThrows) {
  Cluster c(10);
  c.try_allocate(3);
  EXPECT_THROW(c.release(4), util::InvalidArgument);
  EXPECT_THROW(c.release(0), util::InvalidArgument);
}

TEST(Cluster, PeakUsageTracksHighWater) {
  Cluster c(10);
  c.try_allocate(4);
  c.try_allocate(5);
  c.release(5);
  c.try_allocate(2);
  EXPECT_EQ(c.peak_used_nodes(), 9);
}

// The paper's parallelism-wall arithmetic: 1792 nodes / 64-node tasks
// allows 28 concurrent tasks, and a 1024-node task leaves room for no
// second one.
TEST(Cluster, ParallelismWallArithmetic) {
  Cluster c(1792);
  int fit = 0;
  while (c.try_allocate(64)) ++fit;
  EXPECT_EQ(fit, 28);

  Cluster big(1792);
  EXPECT_TRUE(big.try_allocate(1024));
  EXPECT_FALSE(big.try_allocate(1024));
}

}  // namespace
}  // namespace wfr::sim

#include "dag/task.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/error.hpp"
#include "util/units.hpp"

namespace wfr::dag {
namespace {

TEST(ResourceDemand, DefaultIsZero) {
  ResourceDemand d;
  EXPECT_TRUE(d.is_zero());
}

TEST(ResourceDemand, NonZeroDetection) {
  ResourceDemand d;
  d.flops_per_node = 1.0;
  EXPECT_FALSE(d.is_zero());
  d = ResourceDemand{};
  d.overhead_seconds = 0.5;
  EXPECT_FALSE(d.is_zero());
}

TEST(ResourceDemand, AdditionSumsAllChannels) {
  ResourceDemand a, b;
  a.external_in_bytes = 1.0;
  a.fs_read_bytes = 2.0;
  a.network_bytes = 3.0;
  a.flops_per_node = 4.0;
  b.external_in_bytes = 10.0;
  b.fs_write_bytes = 20.0;
  b.overhead_seconds = 0.5;
  const ResourceDemand c = a + b;
  EXPECT_DOUBLE_EQ(c.external_in_bytes, 11.0);
  EXPECT_DOUBLE_EQ(c.fs_read_bytes, 2.0);
  EXPECT_DOUBLE_EQ(c.fs_write_bytes, 20.0);
  EXPECT_DOUBLE_EQ(c.network_bytes, 3.0);
  EXPECT_DOUBLE_EQ(c.flops_per_node, 4.0);
  EXPECT_DOUBLE_EQ(c.overhead_seconds, 0.5);
}

TEST(TaskSpec, ValidationAcceptsReasonableTask) {
  TaskSpec t;
  t.name = "analysis";
  t.nodes = 64;
  t.demand.flops_per_node = 1e15;
  EXPECT_NO_THROW(t.validate());
}

TEST(TaskSpec, ValidationRejectsEmptyName) {
  TaskSpec t;
  t.nodes = 1;
  EXPECT_THROW(t.validate(), util::InvalidArgument);
}

TEST(TaskSpec, ValidationRejectsNonPositiveNodes) {
  TaskSpec t;
  t.name = "x";
  t.nodes = 0;
  EXPECT_THROW(t.validate(), util::InvalidArgument);
}

TEST(TaskSpec, ValidationRejectsNegativeVolumes) {
  TaskSpec t;
  t.name = "x";
  t.demand.fs_read_bytes = -1.0;
  EXPECT_THROW(t.validate(), util::InvalidArgument);
  t.demand.fs_read_bytes = 0.0;
  t.demand.overhead_seconds = -0.1;
  EXPECT_THROW(t.validate(), util::InvalidArgument);
}

TEST(TaskSpec, ValidationRejectsNonFiniteDemands) {
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    TaskSpec t;
    t.name = "x";
    t.demand.fs_read_bytes = bad;
    EXPECT_THROW(t.validate(), util::InvalidArgument) << bad;
    t.demand.fs_read_bytes = 0.0;
    t.demand.flops_per_node = bad;
    EXPECT_THROW(t.validate(), util::InvalidArgument) << bad;
    t.demand.flops_per_node = 0.0;
    t.demand.overhead_seconds = bad;
    EXPECT_THROW(t.validate(), util::InvalidArgument) << bad;
  }
}

TEST(TaskSpec, FixedDurationDefaultsToDerived) {
  TaskSpec t;
  EXPECT_LT(t.fixed_duration_seconds, 0.0);
}

}  // namespace
}  // namespace wfr::dag

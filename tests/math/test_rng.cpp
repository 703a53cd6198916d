#include "math/rng.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wfr::math {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 50000; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / 50000.0, 0.5, 0.01);
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformRangeRejectsInverted) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(5.0, -2.0), util::InvalidArgument);
}

TEST(Rng, UniformIntCoversBoundsInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(0, 9);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 9);
    saw_lo = saw_lo || v == 0;
    saw_hi = saw_hi || v == 9;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  for (int i = 0; i < 50000; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

}  // namespace
}  // namespace wfr::math

#include "math/fit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "math/rng.hpp"
#include "util/error.hpp"

namespace wfr::math {
namespace {

TEST(FitLinear, ExactLineIsRecovered) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(3.0 * x - 2.0);
  const LinearFit f = fit_linear(xs, ys);
  EXPECT_NEAR(f.slope, 3.0, 1e-12);
  EXPECT_NEAR(f.intercept, -2.0, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
}

TEST(FitLinear, NoisyLineHasHighR2) {
  Rng rng(5);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    const double x = static_cast<double>(i);
    xs.push_back(x);
    ys.push_back(2.0 * x + 1.0 + rng.uniform(-0.5, 0.5));
  }
  const LinearFit f = fit_linear(xs, ys);
  EXPECT_NEAR(f.slope, 2.0, 0.01);
  EXPECT_GT(f.r_squared, 0.999);
}

TEST(FitLinear, Validation) {
  const std::vector<double> one{1.0};
  EXPECT_THROW(fit_linear(one, one), util::InvalidArgument);
  const std::vector<double> xs{1.0, 1.0};
  const std::vector<double> ys{1.0, 2.0};
  EXPECT_THROW(fit_linear(xs, ys), util::InvalidArgument);
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{1.0};
  EXPECT_THROW(fit_linear(a, b), util::InvalidArgument);
}

TEST(FitPowerLaw, RecoversExponent) {
  // y = 4 x^1.5
  std::vector<double> xs, ys;
  for (double x : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    xs.push_back(x);
    ys.push_back(4.0 * std::pow(x, 1.5));
  }
  const LinearFit f = fit_power_law(xs, ys);
  EXPECT_NEAR(f.slope, 1.5, 1e-12);
  EXPECT_NEAR(f.intercept, std::log(4.0), 1e-12);
}

TEST(FitPowerLaw, LinearThroughputScalingHasSlopeOne) {
  // Like CosmoFlow: throughput proportional to instance count.
  std::vector<double> xs, ys;
  for (int i = 1; i <= 12; ++i) {
    xs.push_back(i);
    ys.push_back(0.013 * i);
  }
  const LinearFit f = fit_power_law(xs, ys);
  EXPECT_NEAR(f.slope, 1.0, 1e-12);
}

TEST(FitPowerLaw, RejectsNonPositive) {
  const std::vector<double> xs{1.0, 2.0};
  const std::vector<double> ys{1.0, 0.0};
  EXPECT_THROW(fit_power_law(xs, ys), util::InvalidArgument);
}

}  // namespace
}  // namespace wfr::math

#include "autotune/gp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "math/rng.hpp"
#include "util/error.hpp"

namespace wfr::autotune {
namespace {

TEST(GpParams, Validation) {
  GpParams p;
  EXPECT_NO_THROW(p.validate());
  p.length_scale = 0.0;
  EXPECT_THROW(p.validate(), util::InvalidArgument);
  p = GpParams{};
  p.signal_variance = -1.0;
  EXPECT_THROW(p.validate(), util::InvalidArgument);
  p = GpParams{};
  p.noise_variance = -1e-9;
  EXPECT_THROW(p.validate(), util::InvalidArgument);
}

TEST(Gp, InterpolatesTrainingPointsWithLowNoise) {
  GaussianProcess gp(GpParams{.length_scale = 0.4, .signal_variance = 1.0,
                              .noise_variance = 1e-10});
  const std::vector<std::vector<double>> xs{{0.1}, {0.5}, {0.9}};
  const std::vector<double> ys{1.0, -0.5, 2.0};
  gp.fit(xs, ys);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const GpPrediction p = gp.predict(xs[i]);
    EXPECT_NEAR(p.mean, ys[i], 1e-4);
    EXPECT_LT(p.variance, 1e-4);
  }
}

TEST(Gp, RevertsToMeanFarFromData) {
  GaussianProcess gp(GpParams{.length_scale = 0.05, .signal_variance = 1.0,
                              .noise_variance = 1e-8});
  const std::vector<std::vector<double>> xs{{0.0}, {0.1}};
  const std::vector<double> ys{3.0, 5.0};
  gp.fit(xs, ys);
  const GpPrediction far = gp.predict(std::vector<double>{0.9});
  EXPECT_NEAR(far.mean, 4.0, 1e-3);        // the target mean
  EXPECT_NEAR(far.variance, 1.0, 1e-3);    // prior variance
}

TEST(Gp, VarianceShrinksNearData) {
  GaussianProcess gp;
  const std::vector<std::vector<double>> xs{{0.5}};
  const std::vector<double> ys{1.0};
  gp.fit(xs, ys);
  const double near = gp.predict(std::vector<double>{0.51}).variance;
  const double far = gp.predict(std::vector<double>{0.99}).variance;
  EXPECT_LT(near, far);
}

TEST(Gp, SmoothFunctionIsWellApproximated) {
  GaussianProcess gp(GpParams{.length_scale = 0.25, .signal_variance = 1.0,
                              .noise_variance = 1e-8});
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i <= 20; ++i) {
    const double x = i / 20.0;
    xs.push_back({x});
    ys.push_back(std::sin(2.0 * M_PI * x));
  }
  gp.fit(xs, ys);
  for (double x : {0.125, 0.333, 0.777}) {
    const GpPrediction p = gp.predict(std::vector<double>{x});
    EXPECT_NEAR(p.mean, std::sin(2.0 * M_PI * x), 0.02);
  }
}

TEST(Gp, MultiDimensionalFit) {
  GaussianProcess gp(GpParams{.length_scale = 0.5, .signal_variance = 1.0,
                              .noise_variance = 1e-8});
  math::Rng rng(3);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 30; ++i) {
    std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform()};
    ys.push_back(x[0] + 2.0 * x[1] - x[2]);
    xs.push_back(std::move(x));
  }
  gp.fit(xs, ys);
  const GpPrediction p = gp.predict(std::vector<double>{0.5, 0.5, 0.5});
  EXPECT_NEAR(p.mean, 1.0, 0.1);
}

TEST(Gp, FitValidation) {
  GaussianProcess gp;
  EXPECT_THROW(gp.fit({}, std::vector<double>{}), util::InvalidArgument);
  EXPECT_THROW(gp.fit({{0.1}}, std::vector<double>{1.0, 2.0}),
               util::InvalidArgument);
  EXPECT_THROW(gp.fit({{0.1}, {0.2, 0.3}}, std::vector<double>{1.0, 2.0}),
               util::InvalidArgument);
}

TEST(Gp, PredictValidation) {
  GaussianProcess gp;
  EXPECT_THROW(gp.predict(std::vector<double>{0.5}), util::InvalidArgument);
  gp.fit({{0.1}}, std::vector<double>{1.0});
  EXPECT_THROW(gp.predict(std::vector<double>{0.5, 0.5}),
               util::InvalidArgument);
}

TEST(Gp, DuplicatePointsAreHandledByNoise) {
  GaussianProcess gp(GpParams{.noise_variance = 1e-4});
  const std::vector<std::vector<double>> xs{{0.5}, {0.5}};
  const std::vector<double> ys{1.0, 1.2};
  EXPECT_NO_THROW(gp.fit(xs, ys));
  EXPECT_NEAR(gp.predict(std::vector<double>{0.5}).mean, 1.1, 0.05);
}

}  // namespace
}  // namespace wfr::autotune

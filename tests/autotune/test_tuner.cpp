#include "autotune/tuner.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "autotune/surface.hpp"
#include "math/rng.hpp"
#include "util/error.hpp"

namespace wfr::autotune {
namespace {

TEST(History, BestAndTrajectory) {
  History h;
  h.samples.push_back(Sample{{0.1}, 5.0});
  h.samples.push_back(Sample{{0.2}, 3.0});
  h.samples.push_back(Sample{{0.3}, 4.0});
  EXPECT_DOUBLE_EQ(h.best().value, 3.0);
  EXPECT_DOUBLE_EQ(h.best().params[0], 0.2);
}

TEST(History, EmptyThrows) {
  History h;
  EXPECT_THROW(h.best(), util::InvalidArgument);
}

TEST(TunerConfig, Validation) {
  TunerConfig c;
  EXPECT_NO_THROW(c.validate());
  c.total_samples = 0;
  EXPECT_THROW(c.validate(), util::InvalidArgument);
  // Fewer samples than the warm-up takes.
  c.total_samples = kWarmupSamples - 1;
  try {
    c.validate();
    FAIL() << "accepted total_samples below the warm-up";
  } catch (const util::InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "warmup cannot exceed total samples");
  }
  c.total_samples = kWarmupSamples;
  EXPECT_NO_THROW(c.validate());
}

TEST(Tuner, ProducesRequestedSampleCount) {
  TunerConfig cfg;
  cfg.total_samples = 15;
  cfg.seed = 3;
  const History h = tune(
      [](std::span<const double> x) { return (x[0] - 0.5) * (x[0] - 0.5); },
      1, cfg);
  EXPECT_EQ(h.samples.size(), 15u);
  for (const Sample& s : h.samples) {
    ASSERT_EQ(s.params.size(), 1u);
    EXPECT_GE(s.params[0], 0.0);
    EXPECT_LT(s.params[0], 1.0);
  }
}

TEST(Tuner, IsDeterministicForSeed) {
  TunerConfig cfg;
  cfg.total_samples = 12;
  cfg.seed = 9;
  auto objective = [](std::span<const double> x) {
    return std::sin(5.0 * x[0]) + x[0] * x[0];
  };
  const History a = tune(objective, 1, cfg);
  const History b = tune(objective, 1, cfg);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i)
    EXPECT_DOUBLE_EQ(a.samples[i].value, b.samples[i].value);
}

TEST(Tuner, BeatsRandomSearchOnSuperluSurface) {
  SuperluSurface surface(4960);
  TunerConfig cfg;
  cfg.total_samples = 40;  // the paper's campaign size
  cfg.seed = 1;
  const History bo = tune(
      [&surface](std::span<const double> x) { return surface.evaluate(x); },
      surface.dim(), cfg);

  // Pure random baseline with the same budget and seed.
  math::Rng rng(1);
  double random_best = 1e300;
  for (int i = 0; i < 40; ++i) {
    const std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform()};
    random_best = std::min(random_best, surface.evaluate(x));
  }
  EXPECT_LE(bo.best().value, random_best * 1.02);
  // And the tuner should get close to the global optimum.
  EXPECT_LT(bo.best().value, surface.optimum_value() * 1.25);
}

TEST(Tuner, Validation) {
  TunerConfig cfg;
  EXPECT_THROW(tune(nullptr, 1, cfg), util::InvalidArgument);
  EXPECT_THROW(
      tune([](std::span<const double>) { return 0.0; }, 0, cfg),
      util::InvalidArgument);
}

}  // namespace
}  // namespace wfr::autotune

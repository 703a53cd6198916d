#include "autotune/surface.hpp"

#include <gtest/gtest.h>

#include "math/rng.hpp"
#include "util/error.hpp"

namespace wfr::autotune {
namespace {

TEST(Surface, RuntimeScaleMatchesPaperMatrix) {
  SuperluSurface s(4960);
  // The paper notes per-run times well under a second for the 4960 case.
  EXPECT_GT(s.default_value(), 0.05);
  EXPECT_LT(s.default_value(), 1.0);
}

TEST(Surface, LargerMatrixIsSlower) {
  SuperluSurface small(4960);
  SuperluSurface big(4960 * 4);
  EXPECT_GT(big.default_value(), small.default_value() * 10.0);
}

TEST(Surface, OptimumBeatsDefaultAndNeighbours) {
  SuperluSurface s(4960);
  const auto opt = s.optimum();
  const double best = s.optimum_value();
  EXPECT_LT(best, s.default_value());
  math::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform()};
    EXPECT_LE(best, s.evaluate(x) + 1e-12);
  }
  for (double v : opt) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Surface, ExactEvaluationIsDeterministic) {
  const SuperluSurface s(4960);
  const std::vector<double> x{0.3, 0.6, 0.7};
  EXPECT_DOUBLE_EQ(s.evaluate(x), s.evaluate(x));
  EXPECT_DOUBLE_EQ(s.evaluate(x), SuperluSurface(4960).evaluate(x));
}

TEST(Surface, LocalBasinIsWorseThanGlobal) {
  SuperluSurface s(4960);
  const std::vector<double> local{0.8, 0.2, 0.3};
  EXPECT_GT(s.evaluate(local), s.optimum_value());
}

TEST(Surface, Validation) {
  EXPECT_THROW(SuperluSurface(4), util::InvalidArgument);
  SuperluSurface s(4960);
  EXPECT_THROW(s.evaluate(std::vector<double>{0.5}), util::InvalidArgument);
  EXPECT_THROW(s.evaluate(std::vector<double>{0.5, 0.5, 1.5}),
               util::InvalidArgument);
}

}  // namespace
}  // namespace wfr::autotune

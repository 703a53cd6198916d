#include "autotune/surface.hpp"

#include <cmath>

#include "util/error.hpp"

namespace wfr::autotune {

namespace {
// The global optimum location of the landscape below.
constexpr double kOptX0 = 0.30;
constexpr double kOptX1 = 0.62;
constexpr double kOptX2 = 0.75;
}  // namespace

SuperluSurface::SuperluSurface(int matrix_dim) {
  util::require(matrix_dim >= 16, "matrix_dim must be >= 16");
  // Runtime scale: a 4960^2 sparse factorization lands around a third of a
  // second on one Milan socket; scale cubically in the dimension.
  const double n = static_cast<double>(matrix_dim);
  base_seconds_ = 0.28 * std::pow(n / 4960.0, 3.0);
}

double SuperluSurface::evaluate(std::span<const double> x) const {
  util::require(x.size() == dim(), "surface expects 3 parameters");
  for (double v : x)
    util::require(v >= 0.0 && v <= 1.0,
                  "surface parameters must lie in [0,1]");

  // Penalty bowls around the optimum (anisotropic quadratics) plus a local
  // basin near (0.8, 0.2, 0.3) that is 12% worse than the optimum.
  auto sq = [](double v) { return v * v; };
  const double global = 1.0 + 2.2 * sq(x[0] - kOptX0) +
                        1.6 * sq(x[1] - kOptX1) + 0.9 * sq(x[2] - kOptX2);
  const double local_center = 1.12 + 3.0 * sq(x[0] - 0.8) +
                              2.5 * sq(x[1] - 0.2) + 2.0 * sq(x[2] - 0.3);
  // Smooth-min of the two basins; ridge term models grid-aspect cliffs.
  const double basin = -std::log(std::exp(-4.0 * global) +
                                 std::exp(-4.0 * local_center)) /
                       4.0;
  const double ridge = 0.08 * std::sin(6.0 * M_PI * x[0]) *
                       std::sin(4.0 * M_PI * x[1]);
  return base_seconds_ * (basin + ridge + 0.1);
}

std::vector<double> SuperluSurface::optimum() const {
  // The ridge perturbs the quadratic argmin slightly; a local grid refine
  // keeps the reported optimum honest.
  std::vector<double> best{kOptX0, kOptX1, kOptX2};
  double best_v = evaluate(best);
  const double delta = 0.02;
  for (int i = -3; i <= 3; ++i) {
    for (int j = -3; j <= 3; ++j) {
      for (int k = -3; k <= 3; ++k) {
        std::vector<double> cand{kOptX0 + i * delta, kOptX1 + j * delta,
                                 kOptX2 + k * delta};
        bool in_range = true;
        for (double v : cand) in_range = in_range && v >= 0.0 && v <= 1.0;
        if (!in_range) continue;
        const double v = evaluate(cand);
        if (v < best_v) {
          best_v = v;
          best = cand;
        }
      }
    }
  }
  return best;
}

double SuperluSurface::optimum_value() const { return evaluate(optimum()); }

double SuperluSurface::default_value() const {
  const std::vector<double> mid{0.5, 0.5, 0.5};
  return evaluate(mid);
}

}  // namespace wfr::autotune

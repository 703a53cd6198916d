#include "math/fit.hpp"

#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace wfr::math {

LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys) {
  util::require(xs.size() == ys.size(), "fit_linear size mismatch");
  util::require(xs.size() >= 2, "fit_linear requires >= 2 points");
  const auto n = static_cast<double>(xs.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  util::require(std::fabs(denom) > 1e-300, "fit_linear: x values are constant");
  LinearFit fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  // R^2.
  const double mean_y = sy / n;
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double pred = fit.slope * xs[i] + fit.intercept;
    ss_res += (ys[i] - pred) * (ys[i] - pred);
    ss_tot += (ys[i] - mean_y) * (ys[i] - mean_y);
  }
  fit.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

LinearFit fit_power_law(std::span<const double> xs, std::span<const double> ys) {
  util::require(xs.size() == ys.size(), "fit_power_law size mismatch");
  std::vector<double> lx(xs.size()), ly(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    util::require(xs[i] > 0.0 && ys[i] > 0.0,
                  "fit_power_law requires positive inputs");
    lx[i] = std::log(xs[i]);
    ly[i] = std::log(ys[i]);
  }
  return fit_linear(lx, ly);
}

}  // namespace wfr::math

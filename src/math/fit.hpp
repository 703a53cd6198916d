#pragma once
// Least-squares fitting helpers used for scaling analysis (e.g. checking
// that simulated CosmoFlow throughput is linear in the instance count, or
// fitting strong-scaling efficiency curves).

#include <span>

namespace wfr::math {

/// Result of a simple linear fit y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination in [0, 1]; 1 for a perfect fit.
  double r_squared = 0.0;
};

/// Ordinary least squares on (x, y) pairs.  Requires >= 2 points and
/// non-constant x.
LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys);

/// Fits y = c * x^p by linear regression in log-log space.  Requires all
/// inputs strictly positive.  Returns {slope=p, intercept=log(c), r^2}.
LinearFit fit_power_law(std::span<const double> xs, std::span<const double> ys);

}  // namespace wfr::math

#pragma once
// Gaussian-process regression with a squared-exponential (RBF) kernel: the
// surrogate model behind the mini-GPTune auto-tuner (the paper's GPTune
// case study relies on Bayesian optimization with GP surrogates).
//
// Scaled for tens-to-hundreds of observations: exact inference via
// Cholesky factorization (O(n^3) fit, O(n) predict mean / O(n^2) variance).

#include <span>
#include <vector>

#include "math/matrix.hpp"

namespace wfr::autotune {

/// Hyperparameters of the RBF kernel
///   k(a, b) = signal_variance * exp(-|a-b|^2 / (2 length_scale^2))
/// plus observation noise on the diagonal.
struct GpParams {
  double length_scale = 0.3;
  double signal_variance = 1.0;
  double noise_variance = 1e-6;

  void validate() const;
};

/// A posterior prediction at one point.
struct GpPrediction {
  double mean = 0.0;
  double variance = 0.0;
};

/// Exact GP regressor.  Inputs live in [0,1]^d (the tuner normalizes);
/// outputs are standardized internally (zero mean, unit variance) so the
/// default hyperparameters behave across objective scales.
class GaussianProcess {
 public:
  explicit GaussianProcess(GpParams params = {});

  /// Fits the posterior to observations.  Throws InvalidArgument on
  /// inconsistent shapes or an empty training set.
  void fit(const std::vector<std::vector<double>>& inputs,
           std::span<const double> targets);

  bool is_fitted() const { return fitted_; }

  /// Posterior mean and variance at `x`.  Requires a fitted model and
  /// matching dimensionality.
  GpPrediction predict(std::span<const double> x) const;

 private:
  double kernel(std::span<const double> a, std::span<const double> b) const;

  GpParams params_;
  bool fitted_ = false;
  std::vector<std::vector<double>> inputs_;
  std::vector<double> targets_centered_;
  double target_mean_ = 0.0;
  double target_scale_ = 1.0;
  math::Matrix chol_;           // L with K = L L^T
  std::vector<double> alpha_;   // K^-1 (y - mean)
};

}  // namespace wfr::autotune

#include "autotune/gp.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace wfr::autotune {

void GpParams::validate() const {
  util::require(length_scale > 0.0, "GP length_scale must be > 0");
  util::require(signal_variance > 0.0, "GP signal_variance must be > 0");
  util::require(noise_variance >= 0.0, "GP noise_variance must be >= 0");
}

GaussianProcess::GaussianProcess(GpParams params) : params_(params) {
  params_.validate();
}

double GaussianProcess::kernel(std::span<const double> a,
                               std::span<const double> b) const {
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sq += d * d;
  }
  return params_.signal_variance *
         std::exp(-sq / (2.0 * params_.length_scale * params_.length_scale));
}

void GaussianProcess::fit(const std::vector<std::vector<double>>& inputs,
                          std::span<const double> targets) {
  util::require(!inputs.empty(), "GP fit needs at least one observation");
  util::require(inputs.size() == targets.size(),
                "GP fit: inputs/targets size mismatch");
  const std::size_t dim = inputs[0].size();
  util::require(dim >= 1, "GP fit: empty input points");
  for (const auto& x : inputs)
    util::require(x.size() == dim, "GP fit: inconsistent dimensionality");

  inputs_ = inputs;
  const std::size_t n = inputs_.size();

  target_mean_ = 0.0;
  for (double y : targets) target_mean_ += y;
  target_mean_ /= static_cast<double>(n);
  targets_centered_.assign(targets.begin(), targets.end());
  for (double& y : targets_centered_) y -= target_mean_;
  double var = 0.0;
  for (double y : targets_centered_) var += y * y;
  var /= static_cast<double>(n);
  target_scale_ = var > 1e-300 ? std::sqrt(var) : 1.0;
  for (double& y : targets_centered_) y /= target_scale_;

  math::Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = kernel(inputs_[i], inputs_[j]);
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  // Noise plus a small jitter for numerical positive-definiteness.
  k.add_diagonal(params_.noise_variance + 1e-10 * params_.signal_variance);
  chol_ = math::cholesky(k);
  alpha_ = math::cholesky_solve(chol_, targets_centered_);
  fitted_ = true;
}

GpPrediction GaussianProcess::predict(std::span<const double> x) const {
  util::require(fitted_, "GP predict before fit");
  util::require(x.size() == inputs_[0].size(),
                "GP predict: dimensionality mismatch");
  const std::size_t n = inputs_.size();
  std::vector<double> k_star(n);
  for (std::size_t i = 0; i < n; ++i) k_star[i] = kernel(x, inputs_[i]);

  GpPrediction out;
  out.mean = target_mean_ + target_scale_ * math::dot(k_star, alpha_);
  // var = k(x,x) - v^T v with v = L^-1 k_star, in standardized units.
  const std::vector<double> v = math::solve_lower(chol_, k_star);
  const double reduction = math::dot(v, v);
  out.variance = std::max(kernel(x, x) - reduction, 0.0) * target_scale_ *
                 target_scale_;
  return out;
}

}  // namespace wfr::autotune

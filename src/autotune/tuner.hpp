#pragma once
// The Bayesian-optimization loop of the mini-GPTune: random warm-up
// samples, then GP + expected-improvement proposals, all serialized (the
// paper: "the application runs are serialized in GPTune due to the data
// dependencies").

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace wfr::autotune {

/// One evaluated sample.
struct Sample {
  std::vector<double> params;  // normalized, in [0,1]^dim
  double value = 0.0;          // measured runtime (seconds)
};

/// The full tuning history.
struct History {
  std::vector<Sample> samples;

  bool empty() const { return samples.empty(); }
  /// Best (minimum) value observed so far; throws when empty.
  const Sample& best() const;
};

/// The first kWarmupSamples samples are uniform random; after them a GP
/// with the default GpParams proposes each sample by expected improvement.
inline constexpr int kWarmupSamples = 8;

struct TunerConfig {
  int total_samples = 40;  // the paper's GPTune campaign tunes 40 samples
  std::uint64_t seed = 0;

  /// Requires kWarmupSamples <= total_samples.
  void validate() const;
};

/// A black-box objective: normalized params -> runtime seconds.
using Objective = std::function<double(std::span<const double>)>;

/// Runs the BO loop and returns the history (size total_samples).
History tune(const Objective& objective, std::size_t dim,
             const TunerConfig& config);

}  // namespace wfr::autotune

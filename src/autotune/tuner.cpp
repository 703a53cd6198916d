#include "autotune/tuner.hpp"

#include <algorithm>

#include "autotune/acquisition.hpp"
#include "util/error.hpp"

namespace wfr::autotune {

const Sample& History::best() const {
  util::require(!samples.empty(), "tuning history is empty");
  return *std::min_element(samples.begin(), samples.end(),
                           [](const Sample& a, const Sample& b) {
                             return a.value < b.value;
                           });
}

void TunerConfig::validate() const {
  util::require(total_samples >= 1, "total_samples must be >= 1");
  util::require(kWarmupSamples <= total_samples,
                "warmup cannot exceed total samples");
}

History tune(const Objective& objective, std::size_t dim,
             const TunerConfig& config) {
  config.validate();
  util::require(dim >= 1, "tune needs dim >= 1");
  util::require(static_cast<bool>(objective), "tune needs an objective");

  math::Rng rng(config.seed);
  History history;
  history.samples.reserve(static_cast<std::size_t>(config.total_samples));

  // Warm-up: uniform random samples.
  for (int i = 0; i < kWarmupSamples; ++i) {
    Sample s;
    s.params.resize(dim);
    for (double& p : s.params) p = rng.uniform();
    s.value = objective(s.params);
    history.samples.push_back(std::move(s));
  }

  // BO iterations: fit GP on everything seen, propose by EI, evaluate.
  GaussianProcess gp;
  while (static_cast<int>(history.samples.size()) < config.total_samples) {
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    xs.reserve(history.samples.size());
    ys.reserve(history.samples.size());
    for (const Sample& s : history.samples) {
      xs.push_back(s.params);
      ys.push_back(s.value);
    }
    gp.fit(xs, ys);
    Sample s;
    s.params = propose_next(gp, dim, history.best().value, rng);
    s.value = objective(s.params);
    history.samples.push_back(std::move(s));
  }
  return history;
}

}  // namespace wfr::autotune

#pragma once
// Synthetic SuperLU_DIST cost surface: the tuned application of the GPTune
// case study.  The paper tunes SuperLU_DIST on a 4960x4960 sparse matrix
// with per-run times well under a second; we model the runtime as a smooth
// multimodal function of three normalized parameters:
//   x0 — process-grid aspect (nprows / npcols balance),
//   x1 — supernode / block size,
//   x2 — look-ahead depth.
// The surface has one global optimum and a local basin to trap greedy
// search — enough structure to make the Bayesian-optimization loop's
// behaviour realistic.

#include <span>
#include <vector>

namespace wfr::autotune {

class SuperluSurface {
 public:
  /// `matrix_dim` scales the overall runtime (the paper uses 4960).
  explicit SuperluSurface(int matrix_dim = 4960);

  std::size_t dim() const { return 3; }

  /// Runtime (seconds) at normalized parameters x in [0,1]^3: a
  /// deterministic landscape.  Throws on out-of-range inputs.
  double evaluate(std::span<const double> x) const;

  /// The known global optimum (for tests): argmin of evaluate.
  std::vector<double> optimum() const;
  double optimum_value() const;

  /// The baseline runtime at default parameters (0.5, 0.5, 0.5).
  double default_value() const;

 private:
  double base_seconds_;
};

}  // namespace wfr::autotune

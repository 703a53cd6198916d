#pragma once
// Deterministic random number generation for workload synthesis, contention
// injection, and the auto-tuner.  All stochastic components of the library
// take an explicit Rng so results are reproducible given a seed.

#include <cstdint>

namespace wfr::math {

/// xoshiro256** PRNG: fast, high quality, and deterministic across
/// platforms (unlike std::mt19937's distribution implementations).
class Rng {
 public:
  /// Seeds the generator via SplitMix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Returns true with probability p (clamped to [0,1]).
  bool bernoulli(double p);

 private:
  std::uint64_t state_[4];
};

}  // namespace wfr::math

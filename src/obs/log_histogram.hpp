#pragma once
// Log-bucketed high-dynamic-range histogram with exact-count percentile
// queries — the one histogram kind of obs::MetricsRegistry, behind serve's
// per-endpoint latency and the simulator's queue-wait and phase
// distributions (docs/OBSERVABILITY.md).
//
// Bucket boundaries are spaced geometrically at growth 1.05, so any
// recorded value is off by at most half a bucket — ~2.5% relative error —
// while percentile *ranks* are exact: the query walks true per-bucket
// counts to the ceil(q * count)-th sample, there is no interpolation
// between population mass that was never observed.
//
// Concurrency: observe() is lock-free (relaxed atomic adds on the bucket
// counters plus CAS loops for sum/min/max), so request workers record
// latency without serializing on any mutex.  Queries read the counters
// with relaxed loads; under concurrent writers a query is a point-in-time
// approximation, which is exactly what a /metrics scrape wants.
//
// Layout: every histogram shares one constant layout.  Bucket 0 holds
// sub-resolution samples (x <= kMinValue), buckets 1..N hold
// [kMinValue * g^(i-1), kMinValue * g^i), and the last bucket holds
// overflow samples (x >= kMaxValue, reported at the exact observed
// maximum).  The range spans 1 us (a loopback request stage) to 1e6 s (a
// simulated multi-day workflow phase).

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace wfr::obs {

class LogHistogram {
 public:
  /// Smallest resolved value; anything at or below lands in the
  /// sub-resolution bucket.
  static constexpr double kMinValue = 1e-6;
  /// Largest resolved value; anything at or above lands in the overflow
  /// bucket.
  static constexpr double kMaxValue = 1e6;
  /// Geometric bucket growth; relative quantile error is about
  /// (kGrowth - 1) / 2.
  static constexpr double kGrowth = 1.05;
  /// ceil(ln(kMaxValue / kMinValue) / ln(kGrowth)) = 567 resolved buckets
  /// plus the sub-resolution and overflow buckets (tested).
  static constexpr std::size_t kSlots = 569;

  LogHistogram() = default;
  LogHistogram(const LogHistogram&) = delete;
  LogHistogram& operator=(const LogHistogram&) = delete;

  /// Records one sample.  Lock-free; safe from any thread.  Negative
  /// samples are clamped into the sub-resolution bucket.
  void observe(double x);

  std::uint64_t count() const;
  double sum() const;
  /// Exact smallest/largest observed sample; 0 when empty.
  double min() const;
  double max() const;

  /// The q-quantile (q in [0, 1]) by exact rank: the value of the bucket
  /// containing the ceil(q * count)-th smallest sample, reported at the
  /// bucket's geometric midpoint and clamped to the observed [min, max].
  /// 0 when empty.  Monotone in q by construction.
  double quantile(double q) const;

  /// One retained bucket: upper bound (+inf for the overflow bucket,
  /// encoded as infinity()) and its non-cumulative count.
  struct Bucket {
    double upper_bound = 0.0;
    std::uint64_t count = 0;
  };
  /// The non-empty buckets in ascending bound order.
  std::vector<Bucket> nonzero_buckets() const;

  /// Prometheus 0.0.4 histogram exposition under `metric` (already
  /// sanitized): cumulative `_bucket{le="..."}` series for each non-empty
  /// bucket plus the implicit +Inf, then `_sum` and `_count`.  `_count` is
  /// the +Inf value, so the two agree even under concurrent writers.
  /// Parsing the cumulative series back recovers nonzero_buckets() exactly
  /// (round-trip tested).
  std::string prometheus_text(std::string_view metric) const;

  /// Deterministic JSON snapshot {count, sum, min, max, p50, p95, p99,
  /// p999, buckets: [{"le": bound, "count": n}, ...]} (non-empty buckets
  /// only).
  util::Json snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kSlots> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  /// Observed extrema as atomically CAS-updated doubles.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

}  // namespace wfr::obs

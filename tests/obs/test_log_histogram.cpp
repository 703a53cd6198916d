// obs::LogHistogram: exact-rank percentile queries over log-spaced
// buckets — edge cases (empty, single sample, sub-resolution, overflow),
// the constant layout, monotonicity, and the Prometheus exposition
// round-trip (docs/OBSERVABILITY.md).

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/log_histogram.hpp"
#include "util/strings.hpp"

namespace wfr::obs {
namespace {

TEST(LogHistogramTest, EmptySnapshotIsAllZeros) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_TRUE(h.nonzero_buckets().empty());
  const util::Json snap = h.snapshot();
  EXPECT_EQ(snap.at("count").as_number(), 0.0);
  EXPECT_EQ(snap.at("p99").as_number(), 0.0);
  EXPECT_TRUE(snap.at("buckets").as_array().empty());
}

TEST(LogHistogramTest, SingleSampleReportsItselfAtEveryQuantile) {
  LogHistogram h;
  h.observe(0.0125);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0125);
  EXPECT_DOUBLE_EQ(h.max(), 0.0125);
  // With one sample, clamping to [min, max] pins every quantile exactly.
  for (const double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(h.quantile(q), 0.0125) << q;
}

TEST(LogHistogramTest, QuantileErrorIsBoundedByBucketWidth) {
  LogHistogram h;  // growth 1.05 => ~2.5% relative error
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i * 1e-4);  // 0.1..100ms
  for (const double x : samples) h.observe(x);
  for (const double q : {0.50, 0.95, 0.99}) {
    const double rank = std::ceil(q * static_cast<double>(samples.size()));
    const double exact = samples[static_cast<std::size_t>(rank) - 1];
    EXPECT_NEAR(h.quantile(q), exact, exact * 0.05) << q;
  }
}

TEST(LogHistogramTest, SubResolutionAndOverflowSamplesAreRetained) {
  LogHistogram h;
  h.observe(1e-9);  // below kMinValue -> sub-resolution bucket
  h.observe(-4.0);  // negative clamps to sub-resolution too
  h.observe(2e6);   // above kMaxValue -> overflow bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -4.0);
  EXPECT_DOUBLE_EQ(h.max(), 2e6);
  const std::vector<LogHistogram::Bucket> buckets = h.nonzero_buckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets.front().upper_bound, LogHistogram::kMinValue);
  EXPECT_EQ(buckets.front().count, 2u);
  EXPECT_TRUE(std::isinf(buckets.back().upper_bound));
  EXPECT_EQ(buckets.back().count, 1u);
  // The overflow bucket reports the exact observed maximum.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2e6);
}

TEST(LogHistogramTest, ConstantLayoutResolvesOneMicrosecondToOneMillionSeconds) {
  EXPECT_EQ(LogHistogram::kSlots,
            static_cast<std::size_t>(std::ceil(
                std::log(LogHistogram::kMaxValue / LogHistogram::kMinValue) /
                std::log(LogHistogram::kGrowth))) +
                2);
  // Just inside the range: the last resolved bucket, whose bound covers
  // kMaxValue.  At kMaxValue: the overflow bucket.
  LogHistogram edge;
  edge.observe(LogHistogram::kMaxValue * 0.999);
  edge.observe(LogHistogram::kMaxValue);
  const std::vector<LogHistogram::Bucket> buckets = edge.nonzero_buckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets[0].upper_bound,
                   LogHistogram::kMinValue *
                       std::pow(LogHistogram::kGrowth,
                                static_cast<double>(LogHistogram::kSlots - 2)));
  EXPECT_GE(buckets[0].upper_bound, LogHistogram::kMaxValue);
  EXPECT_TRUE(std::isinf(buckets[1].upper_bound));
  // Simulated phases of minutes to days resolve to ~2.5%.
  for (const double seconds : {200.0, 500.0, 86400.0, 5e5}) {
    LogHistogram h;
    h.observe(seconds);
    h.observe(seconds * 1.001);
    h.observe(seconds * 0.999);
    ASSERT_LE(h.nonzero_buckets().size(), 2u) << seconds;
    EXPECT_FALSE(std::isinf(h.nonzero_buckets().back().upper_bound))
        << seconds;
    EXPECT_NEAR(h.quantile(0.5), seconds, seconds * 0.025) << seconds;
  }
}

TEST(LogHistogramTest, QuantilesAreMonotoneInQ) {
  LogHistogram h;
  std::uint64_t state = 88172645463325252ULL;  // xorshift64
  for (int i = 0; i < 5000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    // Spread samples over ~6 decades including out-of-range extremes.
    const double u = static_cast<double>(state % 1000000) / 1e6;
    h.observe(std::pow(10.0, -7.0 + 10.0 * u));
  }
  double previous = h.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double value = h.quantile(q);
    EXPECT_GE(value, previous) << q;
    previous = value;
  }
  EXPECT_LE(h.quantile(0.50), h.quantile(0.99));
  EXPECT_LE(h.quantile(0.99), h.max());
}

TEST(LogHistogramTest, PrometheusExpositionRoundTripsBucketCounts) {
  LogHistogram h;
  for (int i = 1; i <= 500; ++i) h.observe(i * 2e-5);
  h.observe(1e-9);
  h.observe(500.0);
  h.observe(5e6);  // overflow: the +Inf bucket is a real bucket
  const std::string text = h.prometheus_text("wfr_latency_seconds");
  EXPECT_NE(text.find("# TYPE wfr_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("wfr_latency_seconds_bucket{le=\"+Inf\"} 503\n"),
            std::string::npos);
  EXPECT_NE(text.find("wfr_latency_seconds_count 503\n"), std::string::npos);

  // Parse the cumulative le series back and de-accumulate: the result
  // must equal nonzero_buckets() exactly.
  std::vector<LogHistogram::Bucket> parsed;
  std::uint64_t previous = 0;
  std::size_t pos = 0;
  while ((pos = text.find("_bucket{le=\"", pos)) != std::string::npos) {
    pos += 12;
    const std::size_t le_end = text.find('"', pos);
    const std::string le = text.substr(pos, le_end - pos);
    const std::size_t value_end = text.find('\n', le_end);
    const std::uint64_t cumulative =
        std::stoull(text.substr(le_end + 2, value_end - le_end - 2));
    if (cumulative != previous) {
      LogHistogram::Bucket bucket;
      bucket.upper_bound = le == "+Inf"
                               ? std::numeric_limits<double>::infinity()
                               : std::stod(le);
      bucket.count = cumulative - previous;
      parsed.push_back(bucket);
    }
    previous = cumulative;
    pos = value_end;
  }
  const std::vector<LogHistogram::Bucket> expected = h.nonzero_buckets();
  ASSERT_EQ(parsed.size(), expected.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].count, expected[i].count) << i;
    if (std::isinf(expected[i].upper_bound)) {
      EXPECT_TRUE(std::isinf(parsed[i].upper_bound)) << i;
    } else {
      // format_double round-trips exactly.
      EXPECT_DOUBLE_EQ(parsed[i].upper_bound, expected[i].upper_bound) << i;
    }
  }
}

TEST(LogHistogramTest, ConcurrentObserversLoseNothing) {
  LogHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.observe(1e-4 * (1 + ((t * kPerThread + i) % 100)));
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const LogHistogram::Bucket& bucket : h.nonzero_buckets())
    bucket_total += bucket.count;
  EXPECT_EQ(bucket_total, h.count());
}

}  // namespace
}  // namespace wfr::obs

#include "obs/log_histogram.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace wfr::obs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Index of the overflow bucket; 1..kOverflow-1 are the resolved buckets.
constexpr std::size_t kOverflow = LogHistogram::kSlots - 1;

const double kInvLogGrowth = 1.0 / std::log(LogHistogram::kGrowth);

std::size_t bucket_index(double x) {
  if (!(x > LogHistogram::kMinValue)) return 0;  // also negatives and NaN
  if (x >= LogHistogram::kMaxValue) return kOverflow;
  const std::size_t i =
      1 + static_cast<std::size_t>(std::floor(
              std::log(x / LogHistogram::kMinValue) * kInvLogGrowth));
  return std::min(i, kOverflow - 1);
}

/// Upper bound of bucket `i`; +inf for the overflow bucket.
double upper_bound(std::size_t i) {
  if (i >= kOverflow) return kInf;
  return LogHistogram::kMinValue *
         std::pow(LogHistogram::kGrowth, static_cast<double>(i));
}

/// CAS-min/max over atomic doubles (relaxed: extrema are monotone, order
/// does not matter).
void atomic_min(std::atomic<double>& target, double x) {
  double current = target.load(std::memory_order_relaxed);
  while (x < current && !target.compare_exchange_weak(
                            current, x, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double x) {
  double current = target.load(std::memory_order_relaxed);
  while (x > current && !target.compare_exchange_weak(
                            current, x, std::memory_order_relaxed)) {
  }
}

void atomic_add(std::atomic<double>& target, double x) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + x,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

void LogHistogram::observe(double x) {
  counts_[bucket_index(x)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, x);
  atomic_min(min_, x);
  atomic_max(max_, x);
}

std::uint64_t LogHistogram::count() const {
  return count_.load(std::memory_order_relaxed);
}

double LogHistogram::sum() const {
  return sum_.load(std::memory_order_relaxed);
}

double LogHistogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double LogHistogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double LogHistogram::quantile(double q) const {
  util::require(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  // Exact rank: the ceil(q * total)-th smallest sample, at least the 1st.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(total))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kSlots; ++i) {
    cumulative += counts_[i].load(std::memory_order_relaxed);
    if (cumulative < rank) continue;
    // Sub-resolution samples report kMinValue, overflow the exact
    // maximum, resolved buckets their geometric midpoint.
    const double value = i == 0           ? kMinValue
                         : i == kOverflow ? max()
                                          : upper_bound(i) / std::sqrt(kGrowth);
    return std::clamp(value, min(), max());
  }
  return max();  // concurrent writers mid-query: fall back to the extreme
}

std::vector<LogHistogram::Bucket> LogHistogram::nonzero_buckets() const {
  std::vector<Bucket> buckets;
  for (std::size_t i = 0; i < kSlots; ++i) {
    const std::uint64_t n = counts_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets.push_back(Bucket{upper_bound(i), n});
  }
  return buckets;
}

std::string LogHistogram::prometheus_text(std::string_view metric) const {
  const std::string name(metric);
  std::string out = "# TYPE " + name + " histogram\n";
  std::uint64_t cumulative = 0;
  bool saw_inf = false;
  for (const Bucket& bucket : nonzero_buckets()) {
    cumulative += bucket.count;
    const bool inf = std::isinf(bucket.upper_bound);
    saw_inf = saw_inf || inf;
    const std::string le =
        inf ? "+Inf" : util::format_double(bucket.upper_bound);
    out += name + "_bucket{le=\"" + le + "\"} " +
           std::to_string(cumulative) + "\n";
  }
  if (!saw_inf)
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
  out += name + "_sum " + util::format_double(sum()) + "\n";
  out += name + "_count " + std::to_string(cumulative) + "\n";
  return out;
}

util::Json LogHistogram::snapshot() const {
  util::JsonObject entry;
  entry.set("count", static_cast<double>(count()));
  entry.set("sum", sum());
  entry.set("min", min());
  entry.set("max", max());
  entry.set("p50", quantile(0.50));
  entry.set("p95", quantile(0.95));
  entry.set("p99", quantile(0.99));
  entry.set("p999", quantile(0.999));
  util::JsonArray buckets;
  for (const Bucket& bucket : nonzero_buckets()) {
    util::JsonObject b;
    if (std::isinf(bucket.upper_bound)) {
      b.set("le", "inf");
    } else {
      b.set("le", bucket.upper_bound);
    }
    b.set("count", static_cast<double>(bucket.count));
    buckets.push_back(util::Json(std::move(b)));
  }
  entry.set("buckets", util::Json(std::move(buckets)));
  return util::Json(std::move(entry));
}

}  // namespace wfr::obs

#include "obs/probe.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace wfr::obs {

namespace {

/// Time-weighted percentile of (value, weight) pairs, p in [0, 100]:
/// the smallest value v such that intervals with value <= v cover at
/// least p% of the total weight.  Samples are *intervals* of very
/// different lengths, so each counts by its duration.
double weighted_percentile(std::vector<std::pair<double, double>> pairs,
                           double p) {
  if (pairs.empty()) return 0.0;
  std::sort(pairs.begin(), pairs.end());
  double total = 0.0;
  for (const auto& [value, weight] : pairs) total += weight;
  if (total <= 0.0) return pairs.back().first;
  const double target = total * p / 100.0;
  double cumulative = 0.0;
  for (const auto& [value, weight] : pairs) {
    cumulative += weight;
    if (cumulative >= target) return value;
  }
  return pairs.back().first;
}

}  // namespace

util::Json ResourceSummary::to_json() const {
  util::JsonObject o;
  o.set("name", name);
  o.set("capacity_bytes_per_s", capacity);
  o.set("active_seconds", active_seconds);
  o.set("busy_seconds", busy_seconds);
  o.set("delivered_bytes", delivered_bytes);
  o.set("p50_utilization", p50_utilization);
  o.set("p95_utilization", p95_utilization);
  o.set("max_utilization", max_utilization);
  o.set("mean_utilization", mean_utilization);
  o.set("peak_active_flows", peak_active_flows);
  o.set("peak_finite_flows", peak_finite_flows);
  return util::Json(std::move(o));
}

void ResourceTimeSeries::record(double start, double dt, int active,
                                int finite, double per_flow_rate,
                                double delivered) {
  cumulative_ += delivered;
  if (!samples_.empty()) {
    ResourceSample& last = samples_.back();
    // Coalesce contiguous intervals with an unchanged population: the
    // fair-share state is identical, so one longer sample carries the
    // same information and the series stays bounded by the number of
    // population changes, not the number of events.
    const bool contiguous =
        std::abs(last.end_seconds() - start) <=
        1e-9 * std::max(1.0, std::abs(start));
    if (contiguous && last.active_flows == active &&
        last.finite_flows == finite) {
      last.duration_seconds += dt;
      last.delivered_bytes += delivered;
      last.cumulative_bytes = cumulative_;
      return;
    }
  }
  ResourceSample sample;
  sample.start_seconds = start;
  sample.duration_seconds = dt;
  sample.active_flows = active;
  sample.finite_flows = finite;
  sample.per_flow_rate = per_flow_rate;
  sample.delivered_bytes = delivered;
  sample.cumulative_bytes = cumulative_;
  samples_.push_back(sample);
}

void ResourceTimeSeries::clear() {
  cumulative_ = 0.0;
  samples_.clear();
}

ResourceSummary ResourceTimeSeries::summarize() const {
  ResourceSummary summary;
  summary.name = name_;
  summary.capacity = capacity_;
  summary.delivered_bytes = cumulative_;
  std::vector<std::pair<double, double>> weighted;
  weighted.reserve(samples_.size());
  double mean = 0.0;  // Welford: the fallback when no sample has duration
  double max = 0.0;   // utilizations are >= 0
  double utilization_seconds = 0.0;
  for (const ResourceSample& s : samples_) {
    summary.active_seconds += s.duration_seconds;
    if (s.finite_flows > 0) summary.busy_seconds += s.duration_seconds;
    summary.peak_active_flows =
        std::max(summary.peak_active_flows, s.active_flows);
    summary.peak_finite_flows =
        std::max(summary.peak_finite_flows, s.finite_flows);
    const double u = s.utilization();
    weighted.emplace_back(u, s.duration_seconds);
    utilization_seconds += u * s.duration_seconds;
    max = std::max(max, u);
    mean += (u - mean) / static_cast<double>(weighted.size());
  }
  if (!weighted.empty()) {
    summary.p50_utilization = weighted_percentile(weighted, 50.0);
    summary.p95_utilization = weighted_percentile(std::move(weighted), 95.0);
    summary.max_utilization = max;
    summary.mean_utilization = summary.active_seconds > 0.0
                                   ? utilization_seconds /
                                         summary.active_seconds
                                   : mean;
  }
  return summary;
}

void ResourceProbe::register_resource(std::uint32_t id, std::string name,
                                      double capacity) {
  if (series_.size() <= id) series_.resize(id + 1);
  if (series_[id].name().empty()) {
    series_[id] = ResourceTimeSeries(std::move(name), capacity);
  } else {
    series_[id].set_capacity(capacity);
  }
}

void ResourceProbe::record(std::uint32_t id, double start, double dt,
                           int active, int finite, double per_flow_rate,
                           double delivered) {
  util::require(id < series_.size(), "probe: unregistered resource id");
  series_[id].record(start, dt, active, finite, per_flow_rate, delivered);
}

void ResourceProbe::reset() {
  for (ResourceTimeSeries& s : series_) s.clear();
}

std::vector<ResourceSummary> ResourceProbe::summaries() const {
  std::vector<ResourceSummary> out;
  out.reserve(series_.size());
  for (const ResourceTimeSeries& s : series_) out.push_back(s.summarize());
  return out;
}

}  // namespace wfr::obs

#include "obs/registry.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace wfr::obs {

namespace {

/// Prometheus metric name from a dotted wfr name: invalid bytes become
/// '_', and a leading digit (or empty name) gains a '_' prefix.
std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += valid ? c : '_';
  }
  if (out.empty() || (out.front() >= '0' && out.front() <= '9'))
    out.insert(out.begin(), '_');
  return out;
}

/// One `# TYPE` block holding a single sample.
std::string sample_block(const std::string& metric, const char* type,
                         const std::string& value) {
  return "# TYPE " + metric + " " + type + "\n" + metric + " " + value + "\n";
}

/// The quantile gauges emitted next to each histogram.
constexpr std::pair<const char*, double> kQuantileGauges[] = {
    {"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}, {"_p999", 0.999}};

}  // namespace

void MetricsRegistry::check_unique(std::string_view name,
                                   const char* kind) const {
  const char* held_as = counters_.contains(name)     ? "counter"
                        : gauges_.contains(name)     ? "gauge"
                        : histograms_.contains(name) ? "histogram"
                                                     : kind;
  if (std::string_view(held_as) != kind)
    throw util::InvalidArgument(
        util::format("metric '%s' already registered as a %s, requested as "
                     "a %s",
                     std::string(name).c_str(), held_as, kind));
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  check_unique(name, "counter");
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  check_unique(name, "gauge");
  return gauges_.try_emplace(std::string(name)).first->second;
}

LogHistogram& MetricsRegistry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  check_unique(name, "histogram");
  return histograms_.try_emplace(std::string(name)).first->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::prometheus_text() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, counter] : counters_)
    out += sample_block(sanitize_metric_name(name), "counter",
                        std::to_string(counter.value()));
  // Doubles use the shared shortest-round-trip formatter, so a value reads
  // the same here as in the JSON snapshot.
  for (const auto& [name, gauge] : gauges_)
    out += sample_block(sanitize_metric_name(name), "gauge",
                        util::format_double(gauge.value()));
  for (const auto& [name, h] : histograms_) {
    const std::string metric = sanitize_metric_name(name);
    out += h.prometheus_text(metric);
    for (const auto& [suffix, q] : kQuantileGauges)
      out += sample_block(metric + suffix, "gauge",
                          util::format_double(h.quantile(q)));
  }
  return out;
}

util::Json MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  util::JsonObject counters;
  for (const auto& [name, counter] : counters_)
    counters.set(name, static_cast<double>(counter.value()));
  util::JsonObject gauges;
  for (const auto& [name, gauge] : gauges_) gauges.set(name, gauge.value());
  util::JsonObject histograms;
  for (const auto& [name, h] : histograms_) histograms.set(name, h.snapshot());
  util::JsonObject root;
  root.set("counters", util::Json(std::move(counters)));
  root.set("gauges", util::Json(std::move(gauges)));
  root.set("histograms", util::Json(std::move(histograms)));
  return util::Json(std::move(root));
}

}  // namespace wfr::obs

#pragma once
// Metrics registry: the one place wfr's metrics live — named counters,
// gauges and log-bucketed histograms, with deterministic JSON snapshot and
// Prometheus text export.
//
// The paper's Section III argues workflow observation must stay
// lightweight; this registry is the sink for such metrics.  The engine
// reports self-metrics into it (events processed, heap compactions, flows
// registered/cancelled), the runner reports workflow metrics (tasks
// started/completed, queue-wait and per-phase histograms), and
// `wfr serve` records its per-endpoint request counters and latency
// histograms straight into one, so `GET /metrics` is prometheus_text().
//
// Design notes:
//   * Instruments are owned by the registry and handed out by reference;
//     std::map storage keeps those references stable for the registry's
//     lifetime and makes snapshots deterministic (sorted by name).
//   * Updating an instrument is lock-free: counters and gauges are relaxed
//     atomics, histograms are obs::LogHistogram.  The registry's mutex is
//     taken only to create, look up and render instruments, so callers
//     resolve their instruments once and keep the references.
//   * Every histogram shares LogHistogram's constant layout, so two runs
//     of the same configuration snapshot identically.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/log_histogram.hpp"
#include "util/json.hpp"

namespace wfr::obs {

/// Monotonically increasing count of whole events.
class Counter {
 public:
  void increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (e.g. live flow count, heap slots).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Named instruments, created on first access.  A name is bound to one
/// instrument kind; re-requesting it as a different kind throws
/// InvalidArgument.  Every member function is safe to call from any
/// thread.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns (creating if absent) the counter named `name`.
  Counter& counter(std::string_view name);
  /// Returns (creating if absent) the gauge named `name`.
  Gauge& gauge(std::string_view name);
  /// Returns (creating if absent) the histogram named `name`.
  LogHistogram& histogram(std::string_view name);

  /// Lookup without creation; nullptr when absent.
  const Counter* find_counter(std::string_view name) const;

  /// Deterministic snapshot: instruments sorted by name within kind.
  /// {"counters": {...}, "gauges": {...},
  ///  "histograms": {name: <LogHistogram::snapshot()>}}
  util::Json snapshot() const;

  /// Prometheus text exposition format (version 0.0.4), deterministic for
  /// a given registry state: one `# TYPE` block per instrument, sorted by
  /// name within kind (counters, then gauges, then histograms).  Metric
  /// names are sanitized to [a-zA-Z0-9_:] ('.' and other invalid bytes
  /// become '_'; a leading digit gains a '_' prefix).  Each histogram is
  /// LogHistogram::prometheus_text() followed by its `<metric>_p50`,
  /// `_p95`, `_p99` and `_p999` gauges.
  std::string prometheus_text() const;

 private:
  /// Throws unless `name` is free or already a `kind`.  Caller holds
  /// mutex_.
  void check_unique(std::string_view name, const char* kind) const;

  mutable std::mutex mutex_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, LogHistogram, std::less<>> histograms_;
};

}  // namespace wfr::obs

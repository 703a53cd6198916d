#pragma once
// Time-resolved shared-resource probes.
//
// The engine's fair-share advance is piecewise constant: between two
// events, every resource has a fixed flow population and per-flow rate.
// The probe records exactly those intervals — one sample per advance in
// which the resource had flows, coalescing contiguous intervals whose
// population did not change — so the time series is a lossless record of
// the fair-share schedule: integrating (per-flow rate x finite flows)
// over the samples reproduces Simulator::completed_volume exactly.
//
// This is what makes bottleneck *attribution* (not just detection)
// possible: end-state aggregates say the filesystem averaged 60%
// utilization; the time series says it was saturated for the middle
// twenty minutes while sixty analysis tasks drained and idle otherwise.
//
// Recording never perturbs the simulation: the probe only reads state the
// engine already computed, and a detached probe costs one branch per
// advance.

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace wfr::obs {

/// One piecewise-constant interval of one shared resource's state.
struct ResourceSample {
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  /// Flows sharing the resource during the interval (finite + background).
  int active_flows = 0;
  /// Finite (workflow) flows only; background contention is the difference.
  int finite_flows = 0;
  /// Fair-share bandwidth each flow received (bytes/s).
  double per_flow_rate = 0.0;
  /// Volume delivered to finite flows during the interval.
  double delivered_bytes = 0.0;
  /// Running total of delivered volume at the end of the interval.
  double cumulative_bytes = 0.0;

  double end_seconds() const { return start_seconds + duration_seconds; }
  /// Fraction of capacity delivered to finite flows: 1.0 when saturated
  /// by workflow traffic, < 1 when background flows steal shares.
  double utilization() const {
    return active_flows == 0
               ? 0.0
               : static_cast<double>(finite_flows) /
                     static_cast<double>(active_flows);
  }
};

/// Utilization summary of one resource over a run, time-weighted over the
/// intervals during which the resource had at least one flow.
struct ResourceSummary {
  std::string name;
  double capacity = 0.0;            // bytes/s
  double active_seconds = 0.0;      // time with >= 1 flow (any kind)
  double busy_seconds = 0.0;        // time with >= 1 finite flow
  double delivered_bytes = 0.0;     // to finite flows
  double p50_utilization = 0.0;     // time-weighted, over active time
  double p95_utilization = 0.0;
  double max_utilization = 0.0;
  double mean_utilization = 0.0;
  int peak_active_flows = 0;
  int peak_finite_flows = 0;

  util::Json to_json() const;
};

/// The recorded time series of one shared resource.
class ResourceTimeSeries {
 public:
  ResourceTimeSeries() = default;
  ResourceTimeSeries(std::string name, double capacity)
      : name_(std::move(name)), capacity_(capacity) {}

  const std::string& name() const { return name_; }
  void set_capacity(double capacity) { capacity_ = capacity; }

  const std::vector<ResourceSample>& samples() const { return samples_; }

  /// Appends an interval; contiguous intervals with the same flow
  /// population merge into the previous sample.
  void record(double start, double dt, int active, int finite,
              double per_flow_rate, double delivered);

  /// Drops all recorded samples (name/capacity stay; storage is kept for
  /// reuse across runs).
  void clear();

  /// Time-weighted p50/p95/max/mean utilization and peaks.
  ResourceSummary summarize() const;

 private:
  std::string name_;
  double capacity_ = 0.0;
  double cumulative_ = 0.0;
  std::vector<ResourceSample> samples_;
};

/// The engine-facing sampler: one ResourceTimeSeries per registered
/// resource, indexed by the engine's ResourceId.  Attach via
/// sim::Simulator::attach_probe(); the engine registers its resources and
/// feeds every advance interval.
class ResourceProbe {
 public:
  /// Registers resource `id` (idempotent; re-registration updates name
  /// and capacity but keeps recorded samples).
  void register_resource(std::uint32_t id, std::string name,
                         double capacity);

  /// Records one advance interval for resource `id`.
  void record(std::uint32_t id, double start, double dt, int active,
              int finite, double per_flow_rate, double delivered);

  std::vector<ResourceTimeSeries>& series() { return series_; }

  /// Summaries of every registered resource, in registration order.
  std::vector<ResourceSummary> summaries() const;

  /// Clears every series' samples, keeping registrations — lets one probe
  /// observe several runs back to back without reallocation.
  void reset();

 private:
  std::vector<ResourceTimeSeries> series_;
};

}  // namespace wfr::obs

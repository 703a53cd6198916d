#pragma once
// Shared pieces of the perfbench workloads: arguments, the seeded input
// generator, timing and summary statistics, the per-layer call ledger and
// the result every workload fills in (perfbench/README.md).
//
// A workload measures end-to-end metrics in fixed-duration cells and
// reports each as the median over cells with its spread (interquartile
// range over median) and sample count.  A traced run (--trace 1) replays
// the workload's per-item pipeline through the same public functions,
// timing each call from here — the libraries carry no benchmark hooks.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding the WfCommons instances served as import traffic.
  std::string data_dir = "data/wfcommons";
  /// Fault injection for the benchmark's own tests: "digest" corrupts the
  /// sweep digest, "status" mixes a request that must fail into serve.
  std::string inject;
};

/// Monotonic nanoseconds.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Seconds elapsed since a now_ns() reading.
inline double seconds_since(std::uint64_t begin_ns) {
  return static_cast<double>(now_ns() - begin_ns) * 1e-9;
}

/// CPUs this process may run on (what `nproc` prints).
int nproc();

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

/// SplitMix64: every generated input is a pure function of --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Log-uniform in [lo, hi).
  double log_uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
/// Arithmetic mean; 0 when empty.
double mean(const std::vector<double>& values);

/// One reported metric: the value, its unit, the spread of the samples
/// it summarizes (interquartile range / median; 0 for a single sample)
/// and the sample count.
struct Metric {
  double value = 0.0;
  std::string unit;
  double spread = 0.0;
  std::size_t n = 0;
};

/// Median of per-cell samples with their spread.
Metric summarize(const std::vector<double>& samples, const std::string& unit);

/// A single measured number (a count, a ratio, a derived time).
Metric single(double value, const std::string& unit, std::size_t n = 1);

/// Per-call durations of one layer function, timed by the benchmark
/// around its own call.
class LayerTimes {
 public:
  void add(std::uint64_t ns) { ns_.push_back(static_cast<double>(ns)); }
  std::size_t calls() const { return ns_.size(); }
  /// Mean ns per call minus the timer's own cost (never below 0).  Means,
  /// not medians, so the rows of a ledger add up to the per-item mean.
  double mean_net(double timer_ns) const;

 private:
  std::vector<double> ns_;
};

/// Median cost of one now_ns() reading — subtracted from every per-call
/// layer time so cheap calls are not inflated by the clock.
double timer_overhead_ns();

/// What a workload run produced.  `attempted` counts operations (sweep
/// rows, requests, scenarios); `failed` counts operations that failed or
/// whose correctness check failed.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;  // end-to-end (untraced run)
  std::map<std::string, Metric> layers;   // per-layer (traced run)

  /// Records `count` failed operations with a reason.
  void fail(const std::string& reason, std::uint64_t count = 1);
};

/// Closes a traced run's per-item ledger.  The layer `rows` must already be
/// in result.layers, with the per-item time as bench.item_ns.  Records the
/// residual (item minus rows) under its own `residual` name and as
/// bench.residual_ns, and the binding layer — the largest row — as
/// bench.binding_layer_ns and its share of the item, bench.binding_share.
/// A residual far below zero means the rows claim more time than the item
/// took, so the ledger is wrong; that is recorded as a failed check.
void close_ledger(Result& result, const std::string& workload,
                  const std::vector<std::string>& rows,
                  const std::string& residual);

void run_sweep_campaign(const Args& args, Result& result);
void run_serve_mixed(const Args& args, Result& result);
void run_check_irregular(const Args& args, Result& result);

}  // namespace perfbench

#pragma once
// Differential oracle: runs every generated scenario through both the
// analytical Workflow Roofline prediction (core::build_model over a
// characterize_graph of the scenario DAG) and a full discrete-event
// execution (sim::run_workflow).
//
// Rectangular mode asserts they agree:
//   * predicted tasks/second within a relative tolerance of simulated
//     tasks/second (scenarios are engineered so the prediction is exact up
//     to a few parts per thousand — see scenario_gen.hpp);
//   * exact agreement on the parallelism wall, the binding channel, the
//     Fig. 3 bound classification, and the simulator's peak concurrency.
//
// Irregular mode treats the roofline as the upper bound it is on arbitrary
// DAGs: it asserts simulated <= predicted * (1 + tolerance), that the gap
// (1 - simulated/predicted) stays below the documented per-topology-class
// ceiling, and structural agreement (wall, level width, peak concurrency
// within the wall) — and reports the gap distribution per class.
// Divergences are dumped as replayable JSON repro files that record the
// (base_seed, index) pair, so `wfr check --replay <file>` can regenerate
// and re-run the exact scenario.
//
// Determinism contract: results are slot-indexed and every scenario is a
// pure function of (base_seed, index), so the report — including the
// rendered table — is byte-identical at any --jobs count.

#include <cstdint>
#include <string>
#include <vector>

#include "check/scenario_gen.hpp"
#include "util/json.hpp"

namespace wfr::check {

struct CheckOptions {
  /// Number of scenarios (indices 0..seeds-1).
  std::size_t seeds = 100;
  std::uint64_t base_seed = kDefaultBaseSeed;
  /// Rectangular mode: maximum |simulated - predicted| / predicted
  /// throughput.  Irregular mode: slack on the upper-bound assertion
  /// (simulated <= predicted * (1 + tolerance)).
  double tolerance = 0.02;
  /// Worker threads; 0 resolves via WFR_JOBS / hardware (exec::resolve_jobs).
  int jobs = 0;
  /// Which generator draws scenarios (see scenario_gen.hpp).
  GenMode mode = GenMode::kRectangular;
};

/// Names a generated scenario: the fields the report table and the repro
/// writer read.  ScenarioGen(base_seed, mode).generate(index) rebuilds the
/// full scenario, so a result keeps no copy of its task list.
struct ScenarioId {
  std::uint64_t base_seed = 0;
  std::uint64_t case_seed = 0;
  std::size_t index = 0;
  GenMode mode = GenMode::kRectangular;
  Topology topology = Topology::kRectangular;
  Regime regime = Regime::kCompute;
};

/// Outcome of one scenario's analytical-vs-simulated comparison.
struct CaseResult {
  ScenarioId scenario;
  double predicted_tps = 0.0;
  double simulated_tps = 0.0;
  double relative_error = 0.0;
  /// Roofline gap, max(0, 1 - simulated/predicted): how far below the
  /// (upper-bound) prediction the simulator landed.  The irregular-mode
  /// pass criterion compares this against topology_gap_ceiling().
  double gap = 0.0;
  int model_wall = 0;
  int sim_peak_parallel = 0;
  std::string binding_channel;
  std::string predicted_bound;
  std::string expected_bound;
  /// Human-readable failed assertions; empty means the case passed.
  std::vector<std::string> failures;

  bool passed() const { return failures.empty(); }
};

/// Aggregate result of a differential sweep.
struct CheckReport {
  CheckOptions options;
  /// Per-scenario results in index order.
  std::vector<CaseResult> results;
  std::size_t divergences = 0;

  bool all_passed() const { return divergences == 0; }

  /// Deterministic pass/divergence table, plus one DIVERGENCE line per
  /// failed case.  Rectangular mode: per-regime counts and the max
  /// relative error.  Irregular mode: per-topology-class gap distribution
  /// (mean/p50/p90/max) against the documented ceiling.
  std::string table() const;
};

class DifferentialRunner {
 public:
  explicit DifferentialRunner(CheckOptions options);

  /// Fans generate+compare over an exec::ThreadPool; byte-identical
  /// results at any job count.
  CheckReport run() const;

  /// Compares one scenario's prediction against its simulation.
  /// `scenario` is a ScenarioGen draw; the result records only its
  /// ScenarioId.
  CaseResult run_case(const GenScenario& scenario) const;

  /// Replayable divergence record (embeds the scenario, regenerated from
  /// the result's ScenarioId, both throughputs, and every failed
  /// assertion).
  util::Json repro_json(const CaseResult& result) const;

  /// Re-runs the scenario recorded in a repro file: regenerates it from the
  /// recorded (base_seed, index), flags generator drift when the
  /// regenerated scenario no longer matches the recorded one, and returns
  /// the fresh comparison.
  CaseResult replay(const util::Json& repro) const;

 private:
  CheckOptions options_;
};

/// Writes one repro file per divergent case into `directory` (created if
/// missing); returns the written paths in index order.
std::vector<std::string> write_repro_files(const DifferentialRunner& runner,
                                           const CheckReport& report,
                                           const std::string& directory);

/// Reads the relative tolerance recorded in a repro document (used by
/// `wfr check --replay` when no --tolerance override is given).
double repro_tolerance(const util::Json& repro);

}  // namespace wfr::check

#pragma once
// GPTune control flows (paper Fig. 9): the same Bayesian-optimization
// campaign executed under two orchestration styles, plus the projected
// variant the paper derives.
//
//   * RCI ("via bash"): every iteration launches a fresh srun, restarts
//     python (interpreter + library load), and round-trips the metadata
//     through the shared filesystem.  Many small I/O operations mean the
//     I/O cost is latency- not volume-dominated.
//   * Spawn ("via MPI_Comm_Spawn"): one srun for the whole campaign;
//     metadata stays in memory; a single metadata load at the start.
//   * Projected: Spawn with the python overhead removed (the paper's open
//     dot, ~12x above Spawn).
//
// The optimization loop runs for real (src/autotune/tuner.hpp); the time
// accounting is synthetic but itemized exactly as the paper's Fig. 10b
// breakdown (bash, load data, python, application, model and search).

#include <string>

#include "autotune/surface.hpp"
#include "autotune/tuner.hpp"
#include "trace/summary.hpp"

namespace wfr::autotune {

enum class ControlFlowMode { kRci, kSpawn, kProjected };

const char* control_flow_name(ControlFlowMode mode);

/// Cost model for one campaign's orchestration.
struct ControlFlowCosts {
  /// Bash orchestration per iteration (RCI only).
  double bash_per_iter_seconds = 0.0;
  /// srun job-launch latency (per iteration for RCI, once for Spawn).
  double srun_launch_seconds = 0.0;
  /// Python interpreter + library start-up (per iteration for RCI, once
  /// for Spawn).
  double python_startup_seconds = 0.0;
  /// GP model update + search per iteration.
  double model_search_per_iter_seconds = 0.0;
  /// Latency of one metadata filesystem operation (load or store).
  double io_op_latency_seconds = 0.0;
  /// Metadata filesystem operations per iteration (RCI: load + store).
  int io_ops_per_iter = 0;
  /// One-time metadata filesystem operations (Spawn: initial load).
  int io_ops_once = 0;
  /// Metadata volume per filesystem operation.
  double metadata_bytes_per_op = 0.0;
  /// Filesystem bandwidth for the volume term of I/O time.
  double fs_gbs = 4.8e12;
};

/// The paper-calibrated cost models.
ControlFlowCosts rci_costs();
ControlFlowCosts spawn_costs();
ControlFlowCosts projected_costs();

struct CampaignConfig {
  ControlFlowMode mode = ControlFlowMode::kRci;
  TunerConfig tuner;
  /// Override the mode's default costs (mode_costs() when unset).
  bool use_custom_costs = false;
  ControlFlowCosts custom_costs;
};

/// Result of one campaign.
struct CampaignResult {
  ControlFlowMode mode = ControlFlowMode::kRci;
  History history;                  // the real BO trace
  trace::TimeBreakdown breakdown;   // Fig. 10b components
  double total_seconds = 0.0;
  double application_seconds = 0.0; // sum of tuned-application runtimes
  double io_seconds = 0.0;
  double fs_bytes = 0.0;            // total metadata volume moved
  int fs_ops = 0;                   // number of metadata operations

  /// Throughput in samples/second.
  double samples_per_second() const;
};

/// Runs the campaign: executes the BO loop against `surface` and accounts
/// the orchestration costs of the chosen control flow.
CampaignResult run_campaign(const SuperluSurface& surface,
                            const CampaignConfig& config);

}  // namespace wfr::autotune

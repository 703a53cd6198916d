#include "autotune/control_flow.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace wfr::autotune {

const char* control_flow_name(ControlFlowMode mode) {
  switch (mode) {
    case ControlFlowMode::kRci: return "RCI";
    case ControlFlowMode::kSpawn: return "Spawn";
    case ControlFlowMode::kProjected: return "Projected";
  }
  return "?";
}

// Calibration targets (paper Fig. 10): RCI 553 s, Spawn 228 s, projected
// ~12x above Spawn; I/O time 30 s (RCI) vs 0.02 s (Spawn) despite similar
// metadata volumes (45 MB vs 40 MB) — pattern over volume.

ControlFlowCosts rci_costs() {
  ControlFlowCosts c;
  c.bash_per_iter_seconds = 2.0;
  c.srun_launch_seconds = 1.9;          // per iteration
  c.python_startup_seconds = 3.6;       // interpreter + libraries, per iter
  c.model_search_per_iter_seconds = 5.2;
  c.io_op_latency_seconds = 0.375;      // small-file metadata round trip
  c.io_ops_per_iter = 2;                // load + store each iteration
  c.io_ops_once = 0;
  c.metadata_bytes_per_op = 45e6 / 80.0;  // 45 MB over 80 operations
  return c;
}

ControlFlowCosts spawn_costs() {
  ControlFlowCosts c;
  c.bash_per_iter_seconds = 0.0;
  c.srun_launch_seconds = 1.9;          // once
  c.python_startup_seconds = 8.0;       // once (full library load)
  c.model_search_per_iter_seconds = 5.2;
  c.io_op_latency_seconds = 0.02;
  c.io_ops_per_iter = 0;
  c.io_ops_once = 1;                    // initial metadata load only
  c.metadata_bytes_per_op = 40e6;
  return c;
}

ControlFlowCosts projected_costs() {
  ControlFlowCosts c = spawn_costs();
  // The paper's open dot: python overhead removed (native model/search).
  c.python_startup_seconds = 0.0;
  c.model_search_per_iter_seconds = 0.0;
  return c;
}

double CampaignResult::samples_per_second() const {
  util::require(total_seconds > 0.0, "campaign has no duration");
  return static_cast<double>(history.samples.size()) / total_seconds;
}

CampaignResult run_campaign(const SuperluSurface& surface,
                            const CampaignConfig& config) {
  const ControlFlowCosts costs =
      config.use_custom_costs
          ? config.custom_costs
          : (config.mode == ControlFlowMode::kRci
                 ? rci_costs()
                 : (config.mode == ControlFlowMode::kSpawn
                        ? spawn_costs()
                        : projected_costs()));

  CampaignResult result;
  result.mode = config.mode;

  // The real optimization loop: GP + EI over the synthetic SuperLU surface.
  result.history = tune(
      [&surface](std::span<const double> x) { return surface.evaluate(x); },
      surface.dim(), config.tuner);

  const auto iters = static_cast<double>(result.history.samples.size());
  for (const Sample& s : result.history.samples)
    result.application_seconds += s.value;

  // Orchestration accounting, itemized as the paper's breakdown.
  const bool per_iter_control = config.mode == ControlFlowMode::kRci;
  const double bash = costs.bash_per_iter_seconds * iters;
  const double srun =
      costs.srun_launch_seconds * (per_iter_control ? iters : 1.0);
  const double python =
      costs.python_startup_seconds * (per_iter_control ? iters : 1.0);
  const double model = costs.model_search_per_iter_seconds * iters;

  result.fs_ops = costs.io_ops_once +
                  costs.io_ops_per_iter * static_cast<int>(iters);
  result.fs_bytes =
      costs.metadata_bytes_per_op * static_cast<double>(result.fs_ops);
  util::require(costs.fs_gbs > 0.0, "control-flow costs need fs_gbs > 0");
  result.io_seconds =
      costs.io_op_latency_seconds * static_cast<double>(result.fs_ops) +
      result.fs_bytes / costs.fs_gbs;

  result.breakdown.scenario = control_flow_name(config.mode);
  if (bash > 0.0) result.breakdown.component("bash").seconds = bash;
  if (srun > 0.0) result.breakdown.component("srun").seconds = srun;
  if (result.io_seconds > 0.0)
    result.breakdown.component("load data").seconds = result.io_seconds;
  if (python > 0.0) result.breakdown.component("python").seconds = python;
  if (model > 0.0)
    result.breakdown.component("model and search").seconds = model;
  result.breakdown.component("application").seconds =
      result.application_seconds;

  result.total_seconds = result.breakdown.total_seconds();
  return result;
}

}  // namespace wfr::autotune

#pragma once
// Workflow runner: executes a dag::WorkflowGraph on a MachineConfig through
// the discrete-event engine and emits a trace::WorkflowTrace.
//
// Execution model per task (phases in order):
//   1. overhead       — fixed serial delay (bash/srun/python);
//   2. external_in    — flow on the shared external-ingress resource;
//   3. fs_read        — flow on the shared filesystem resource;
//   4. work           — node-local delay: the max over compute, DRAM, HBM
//                       and PCIe channel times plus the task's network time
//                       at its aggregate NIC bandwidth (overlapped-channel
//                       roofline assumption);
//   5. fs_write       — flow on the shared filesystem resource.
//
// Shared resources use fair-share bandwidth, so concurrent tasks (and any
// configured background contention) slow each other down — exactly the
// mechanism behind the paper's LCLS "good day / bad day" observation.
//
// A task with fixed_duration_seconds >= 0 pads its work phase so that,
// absent contention, its total duration equals the fixed value; when the
// I/O phases take longer than the fixed duration allows, the task simply
// takes longer (contention cannot be waived by fiat).

#include <functional>
#include <vector>

#include "dag/graph.hpp"
#include "obs/observation.hpp"
#include "sim/machine.hpp"
#include "trace/timeline.hpp"

namespace wfr::sim {

/// A contention injector: `flows` background flows occupying fair shares
/// of one shared channel for [start_seconds, end_seconds).
struct BackgroundLoad {
  enum class Channel { kFilesystem, kExternal };
  Channel channel = Channel::kFilesystem;
  int flows = 1;
  double start_seconds = 0.0;
  /// Negative means "until the simulation ends".
  double end_seconds = -1.0;
};

/// Options controlling a workflow run.  The node pool is the machine's
/// total_nodes.
struct RunOptions {
  /// Contention injectors.
  std::vector<BackgroundLoad> background;
  /// Observation sink (owned by the caller; must outlive the run).  When
  /// set, the runner reports workflow metrics into its registry (tasks
  /// started/completed, queue-wait and per-phase duration histograms),
  /// the engine exports its self-metrics, and — unless
  /// observe->sample_resources is off — the shared-resource time series
  /// is recorded into its probe.  Observation never changes the simulated
  /// schedule; results are identical with it on or off.
  obs::Observation* observe = nullptr;
};

/// Derived, contention-free duration of one task's work phase on `machine`
/// (max over node channels; network at nodes*nic).  Exposed for the
/// analytical model and tests.
double work_phase_seconds(const dag::TaskSpec& task,
                          const MachineConfig& machine);

/// Contention-free estimate of a full task duration (all phases, shared
/// channels at full capacity).  Used for fixed-duration padding and quick
/// estimates.
double uncontended_task_seconds(const dag::TaskSpec& task,
                                const MachineConfig& machine);

/// Executes `graph` on `machine` and returns the trace.  Throws
/// InvalidArgument when a task demands a channel the machine lacks or
/// needs more nodes than the pool.
trace::WorkflowTrace run_workflow(const dag::WorkflowGraph& graph,
                                  const MachineConfig& machine,
                                  const RunOptions& options = {});

/// Occupancy of one shared channel over a run.
struct ChannelStats {
  double busy_seconds = 0.0;  // time with >= 1 workflow flow in flight
  double volume_bytes = 0.0;  // bytes delivered to workflow flows
  /// Delivered volume / (capacity x busy time); < 1 under background
  /// contention, 1 when the channel was saturated whenever busy.
  double utilization = 0.0;
};

/// run_workflow plus the shared-channel occupancy statistics.
struct RunResult {
  trace::WorkflowTrace trace;
  ChannelStats filesystem;
  ChannelStats external;
  int peak_nodes_used = 0;
  /// Per-resource utilization summaries (p50/p95/max); filled only when
  /// the run observed with resource sampling enabled.
  std::vector<obs::ResourceSummary> resource_summaries;
};

RunResult run_workflow_detailed(const dag::WorkflowGraph& graph,
                                const MachineConfig& machine,
                                const RunOptions& options = {});

}  // namespace wfr::sim

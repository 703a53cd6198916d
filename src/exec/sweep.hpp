#pragma once
// SweepRunner: fan a list (or parameter grid) of what-if scenarios across
// the thread pool.  Each scenario is one closed-form model evaluation, so
// every point is evaluated directly; nothing is memoized.  Both sweep
// paths share one evaluator, evaluate_model_summary, and one row writer,
// append_result_line; a labeled core::RooflineModel is built only by a
// caller that draws or reports one.
//
// This is the engine behind `wfr sweep`, `POST /v1/sweep`, the
// capacity-planning example, and the sweep benchmarks.  The determinism
// contract of exec::parallel_for applies: results land in slots by
// scenario index and every output is bit-for-bit identical at --jobs 1
// and --jobs N (docs/PARALLELISM.md).
//
// Campaign-scale sweeps (the ROADMAP's million-point grids) use the
// streaming layer instead of the buffering run_models() API:
//   * SweepGrid describes a parameter grid without materializing it —
//     scenarios are built on demand by flat index, so a 10^6-point grid
//     costs O(1) resident memory, and grid_hash() fingerprints the grid
//     for checkpoint/resume (exec/checkpoint.hpp).
//   * stream_lines() emits NDJSON rows in deterministic scenario order *as
//     slots complete*: a bounded reorder window holds out-of-order
//     completions, claims are throttled against the emit frontier, and
//     there is no end-of-grid barrier.  A worker claims and deposits up to
//     16 consecutive rows per lock, never past the window's edge, so rows
//     claimed but not yet emitted stay <= reorder_window; the emitter
//     sinks every contiguous ready row (never more than the window) per
//     lock round trip.
//     Rows are formatted straight into the window's ring of line buffers
//     and sunk from there, so peak resident state is
//     O(reorder_window + jobs), independent of grid size.

#include <atomic>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "exec/shard.hpp"
#include "exec/thread_pool.hpp"
#include "obs/tracer.hpp"
#include "util/hash.hpp"

namespace wfr::exec {

/// One sweep point: a complete model input plus bookkeeping.
struct Scenario {
  /// Display label.
  std::string label;
  core::SystemSpec system;
  core::WorkflowCharacterization workflow;
  /// The grid coordinates that produced this point (name, value), in axis
  /// order.  Filled by SweepGrid/expand_grid; carried into NDJSON output.
  std::vector<std::pair<std::string, double>> params;
};

/// The wall/attainable/binding summary of one scenario: the sweep row's
/// numbers and the summary fields of a /v1/roofline body.
struct ModelSummary {
  int parallelism_wall = 0;
  /// min over ceilings at the wall — the best attainable throughput.
  double attainable_tps_at_wall = 0.0;
  /// Per-slot latency: the seconds_per_task of the ceiling binding at one
  /// task (0 when a horizontal ceiling binds even there).
  double slot_seconds = 0.0;
  /// total_tasks / attainable_tps_at_wall.
  double campaign_makespan_seconds = 0.0;
  /// Display label of the ceiling binding at the wall — the only label
  /// the summary formats (core::ceiling_label of the binding spec).
  std::string binding_label;
  /// core::channel_name() of the binding ceiling (static storage).
  const char* binding_channel = "";
};

/// Evaluates one scenario to its summary, using `scratch` for the
/// ceiling set so a worker looping over a grid reuses one allocation.
/// This is the one evaluator of a scenario: both sweep paths and the /v1
/// summaries use it.  Performs the same validation — and throws the same
/// errors — as core::build_model, and its fields equal the labeled
/// model's parallelism_wall(), attainable_tps(wall), binding_ceiling(wall)
/// and binding_ceiling(1).
ModelSummary evaluate_model_summary(const Scenario& scenario,
                                    std::vector<core::CeilingSpec>& scratch);

/// Appends the NDJSON object of one sweep row to `out` (no trailing
/// newline, `out` not cleared):
///   {"sweep":<label>,"params":{...},"wall":N,"attainable_tps":...,
///    "binding":...,"channel":...,"slot_seconds":...,
///    "campaign_makespan_s":...}
/// Deterministic bytes: field order fixed, params in axis order.  The one
/// row writer of both sweep paths, fed from a ModelSummary plus the
/// scenario's label and params.
void append_result_line(
    std::string& out, std::string_view label,
    const std::vector<std::pair<std::string, double>>& params, int wall,
    double attainable_tps, std::string_view binding, std::string_view channel,
    double slot_seconds, double campaign_makespan_s);

/// Every axis name SweepGrid understands, in the order `wfr help` lists
/// them.
inline constexpr std::string_view kSweepAxes[] = {
    "nodes_per_task", "efficiency",   "parallel_tasks", "total_tasks",
    "total_nodes",    "fs_gbs",       "external_gbs",   "nic_gbs",
    "peak_flops",
};

/// One axis of a parameter grid (see SweepGrid for what each name sets).
struct ParamAxis {
  std::string name;
  std::vector<double> values;
};

/// A parameter grid described lazily: the cross product of the axes in
/// row-major order (first axis slowest), materialized one scenario at a
/// time by flat index.  The kSweepAxes names set:
///   nodes_per_task — intra-task-parallelism factor applied via
///                    core::scale_intra_task_parallelism;
///   efficiency     — strong-scaling efficiency used by nodes_per_task
///                    (default 1.0; an axis of its own);
///   parallel_tasks, total_tasks, total_nodes — absolute integers;
///   fs_gbs, external_gbs, nic_gbs, peak_flops — absolute rates.
/// The constructor throws InvalidArgument on an unknown name or an empty
/// axis.  at_into(flat, out) is a pure function of (grid definition,
/// flat), so streaming workers can materialize rows independently in any
/// order.
class SweepGrid {
 public:
  SweepGrid(core::SystemSpec base_system,
            core::WorkflowCharacterization base_workflow,
            std::vector<ParamAxis> axes);

  /// Number of points (product of the axis lengths; 1 for no axes).
  std::size_t size() const { return points_; }

  /// Materializes the scenario at `flat` (row-major) into a caller-owned
  /// scenario, reusing its string/vector capacity (zero steady-state
  /// allocations for grids without intra-task-scaling axes).  Throws
  /// InvalidArgument when out of range or when an integer axis lands on a
  /// non-integral value.  The row's coordinates land in out.params before
  /// any value is validated, so a row that fails still carries them for
  /// its error message.
  void at_into(std::size_t flat, Scenario& out) const;

  /// Fingerprint of the grid definition (base system + base workflow +
  /// axes), the identity a checkpoint is keyed on: resuming under a
  /// different grid is an error, not silent corruption.
  util::Hash128 grid_hash() const;

  const core::SystemSpec& base_system() const { return base_system_; }
  const core::WorkflowCharacterization& base_workflow() const {
    return base_workflow_;
  }
  const std::vector<ParamAxis>& axes() const { return axes_; }

 private:
  core::SystemSpec base_system_;
  core::WorkflowCharacterization base_workflow_;
  std::vector<ParamAxis> axes_;
  std::size_t points_ = 1;
  /// The label text "name=%g" of every axis value, formatted once, axis
  /// after axis: value j of axis i (k = j + the lengths of the axes before
  /// i) is label_text_[label_ends_[k - 1], label_ends_[k]), from 0 for
  /// k = 0.
  std::string label_text_;
  std::vector<std::size_t> label_ends_;
};

/// Materializes a whole grid into a vector (the small-grid path: tables,
/// SVG overlays, run_models).  Campaign-scale grids should stay lazy via
/// SweepGrid + stream_lines.  A row that fails to build throws an
/// InvalidArgument that names it (see SweepRunner::run_models).
std::vector<Scenario> expand_grid(const core::SystemSpec& base_system,
                                  const core::WorkflowCharacterization& base,
                                  const std::vector<ParamAxis>& axes);

struct SweepOptions {
  /// Worker threads; 0 = resolve_jobs() (WFR_JOBS, then hardware).
  int jobs = 0;
};

/// Streaming evaluation options (SweepRunner::stream_lines).
struct StreamOptions {
  /// Maximum completed-but-unemitted rows held while an earlier row is
  /// still evaluating.  Claims, in batches of up to 16 rows, are throttled
  /// to [emit frontier, emit frontier + window), bounding buffered
  /// results; larger windows tolerate more completion skew, smaller ones
  /// bound memory tighter (a window of 1 claims one row at a time).  Must
  /// be >= 1.
  std::size_t reorder_window = 1024;
  /// First row to evaluate and emit; rows below are assumed already
  /// emitted by a previous run (checkpoint resume).  Shard-local when
  /// `shard` splits the grid (identical to the flat grid row otherwise).
  std::size_t start_row = 0;
  /// The slice of the grid this stream owns (default: all of it).  Row
  /// indices seen by sinks are shard-local: the stream walks this
  /// shard's rows 0..shard.rows(grid.size()), mapping each to its global
  /// flat index via shard.global_row, so per-shard checkpoints stay
  /// simple prefix ranges.
  ShardSpec shard;
};

/// Evaluates model scenarios on a pool.  A runner may be shared: several
/// threads can call run_models and stream_lines on it concurrently (one
/// `wfr serve` runner serves every request).
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// The buffering sweep: evaluate_model_summary of each scenario, in
  /// scenario order.  A scenario that fails stops the sweep at the lowest
  /// failing index with an InvalidArgument that names the row:
  /// "sweep row <index> (<name>=<value> ...): <reason>", the same line
  /// stream_lines and expand_grid raise for that row.
  std::vector<ModelSummary> run_models(const std::vector<Scenario>& scenarios);

  /// Sink of one streamed NDJSON line, '\n'-terminated: append_result_line
  /// of the row's summary, then "\n".  Invoked by exactly one worker at a
  /// time (the runner serializes emission), with `row` strictly increasing
  /// from options.start_row; the buffer is the row's slot in the reorder
  /// window, owned by the runner and valid only during the call.  A sink
  /// exception stops the stream after the current row and propagates to
  /// the caller.
  using LineSink = std::function<void(std::size_t row, std::string_view line)>;

  /// Streams rows [options.start_row, rows) of the grid (or of its shard)
  /// in deterministic row order, with no end-of-grid barrier: each row is
  /// handed to `sink` as soon as it and every row before it have
  /// completed.  Each row is evaluated straight to its ModelSummary in
  /// per-worker scratch and serialized into a reused row buffer.  Emitted
  /// bytes are identical to append_result_line over run_models and
  /// invariant under jobs, reorder_window, shard and resume splits.  A row
  /// that fails stops claims and rethrows lowest-index-first, naming the
  /// global row as run_models does; rows already handed to the sink stay
  /// emitted (a checkpoint written from the sink remains valid).
  void stream_lines(const SweepGrid& grid, const StreamOptions& options,
                    const LineSink& sink);

  /// Attaches a tracer (not owned; null detaches): every streamed row's
  /// evaluation becomes an "evaluate" span annotated with the scenario
  /// label.  Spans never feed results, so sweep determinism is unaffected.
  void set_tracer(obs::Tracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }

 private:
  ThreadPool pool_;
  std::atomic<obs::Tracer*> tracer_{nullptr};
};

}  // namespace wfr::exec

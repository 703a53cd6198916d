#include "exec/sweep.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>

#include "core/advisor.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace wfr::exec {

namespace {

using Params = std::vector<std::pair<std::string, double>>;

/// Appends one coordinate as "name=value", the value as printf's "%g"
/// would print it (general at precision 6, without printf's format
/// parsing).  Grid labels and row errors share it.
void append_coordinate(std::string& out, std::string_view name,
                       double value) {
  char value_text[32];
  out += name;
  out += '=';
  out.append(value_text,
             std::to_chars(value_text, value_text + sizeof(value_text), value,
                           std::chars_format::general, 6)
                 .ptr);
}

/// Rethrows `error`, raised while building or evaluating grid row `flat`
/// with coordinates `params`, as "sweep row <flat> (<name>=<value> ...):
/// <what>".  Both sweep paths — stream_lines and expand_grid +
/// run_models — report a failing row through this, so they print the
/// same line; the message is built only on the failing path.
[[noreturn]] void rethrow_row_error(std::size_t flat, const Params& params,
                                    const util::InvalidArgument& error) {
  std::string message = "sweep row " + std::to_string(flat);
  for (std::size_t i = 0; i < params.size(); ++i) {
    message += i == 0 ? " (" : " ";
    append_coordinate(message, params[i].first, params[i].second);
  }
  if (!params.empty()) message += ')';
  message += ": ";
  message += error.what();
  throw util::InvalidArgument(message);
}

}  // namespace

ModelSummary evaluate_model_summary(const Scenario& scenario,
                                    std::vector<core::CeilingSpec>& scratch) {
  // Same validation order as the RooflineModel constructor build_model
  // funnels through, so both paths throw identical errors.
  scenario.system.validate();
  scenario.workflow.validate();
  core::compute_ceilings(scenario.system, scenario.workflow, scratch);

  // compute_ceilings always appends exactly one wall (it throws when the
  // tasks don't fit), so the scans below match RooflineModel's
  // parallelism_wall / binding_ceiling semantics: min wall, strict < so
  // ties keep the first ceiling.
  int wall = std::numeric_limits<int>::max();
  for (const core::CeilingSpec& c : scratch)
    if (c.kind == core::CeilingKind::kWall)
      wall = std::min(wall, c.max_parallel_tasks);

  const double wall_p = static_cast<double>(wall);
  const core::CeilingSpec* binding = nullptr;
  const core::CeilingSpec* binding_at_one = nullptr;
  double best = std::numeric_limits<double>::infinity();
  double best_at_one = std::numeric_limits<double>::infinity();
  for (const core::CeilingSpec& c : scratch) {
    if (c.kind == core::CeilingKind::kWall) continue;
    const double tps = c.tps_at(wall_p);
    if (tps < best) {
      best = tps;
      binding = &c;
    }
    const double tps_one = c.tps_at(1.0);
    if (tps_one < best_at_one) {
      best_at_one = tps_one;
      binding_at_one = &c;
    }
  }
  if (binding == nullptr)
    throw util::InvalidArgument(
        "model has no throughput ceilings (only walls)");

  ModelSummary summary;
  summary.parallelism_wall = wall;
  summary.attainable_tps_at_wall = best;
  summary.binding_label =
      core::ceiling_label(*binding, scenario.system, scenario.workflow);
  summary.binding_channel = core::channel_name(binding->channel);
  summary.slot_seconds = binding_at_one->seconds_per_task;
  summary.campaign_makespan_seconds =
      static_cast<double>(scenario.workflow.total_tasks) /
      summary.attainable_tps_at_wall;
  return summary;
}

SweepRunner::SweepRunner(SweepOptions options) : pool_(options.jobs) {}

std::vector<ModelSummary> SweepRunner::run_models(
    const std::vector<Scenario>& scenarios) {
  return parallel_map<ModelSummary>(
      pool_, scenarios.size(), [&scenarios](std::size_t i) {
        std::vector<core::CeilingSpec> scratch;
        try {
          return evaluate_model_summary(scenarios[i], scratch);
        } catch (const util::InvalidArgument& e) {
          rethrow_row_error(i, scenarios[i].params, e);
        }
      });
}

void append_result_line(
    std::string& out, std::string_view label,
    const std::vector<std::pair<std::string, double>>& params, int wall,
    double attainable_tps, std::string_view binding, std::string_view channel,
    double slot_seconds, double campaign_makespan_s) {
  // Field order, escaping, and number formatting mirror the Json
  // serializer exactly (json_append_escaped + format_double, the same
  // routines Json::dump uses), so this writer and a JsonObject built from
  // the same fields emit identical bytes.
  out += "{\"sweep\":";
  util::json_append_escaped(out, label);
  if (!params.empty()) {
    out += ",\"params\":{";
    bool first = true;
    for (const auto& [name, value] : params) {
      if (!first) out += ',';
      first = false;
      util::json_append_escaped(out, name);
      out += ':';
      util::append_double(out, value);
    }
    out += '}';
  }
  out += ",\"wall\":";
  util::append_double(out, static_cast<double>(wall));
  out += ",\"attainable_tps\":";
  util::append_double(out, attainable_tps);
  out += ",\"binding\":";
  util::json_append_escaped(out, binding);
  out += ",\"channel\":";
  util::json_append_escaped(out, channel);
  out += ",\"slot_seconds\":";
  util::append_double(out, slot_seconds);
  out += ",\"campaign_makespan_s\":";
  util::append_double(out, campaign_makespan_s);
  out += '}';
}

namespace {

bool known_axis(const std::string& name) {
  for (const std::string_view axis : kSweepAxes)
    if (name == axis) return true;
  return false;
}

int positive_int_param(const std::string& name, double value) {
  const int rounded = static_cast<int>(std::llround(value));
  util::require(rounded >= 1 && std::abs(value - rounded) < 1e-9,
                "sweep axis '%s' needs positive integers, got %g",
                name.c_str(), value);
  return rounded;
}

}  // namespace

SweepGrid::SweepGrid(core::SystemSpec base_system,
                     core::WorkflowCharacterization base_workflow,
                     std::vector<ParamAxis> axes)
    : base_system_(std::move(base_system)),
      base_workflow_(std::move(base_workflow)),
      axes_(std::move(axes)) {
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    const ParamAxis& axis = axes_[i];
    util::require(known_axis(axis.name), "unknown sweep axis '%s'",
                  axis.name.c_str());
    util::require(!axis.values.empty(), "sweep axis '%s' has no values",
                  axis.name.c_str());
    // A repeated axis would emit duplicate JSON keys in params{} — reject
    // it here, where the message can still name the axis.
    for (std::size_t j = 0; j < i; ++j)
      util::require(axes_[j].name != axis.name, "duplicate sweep axis '%s'",
                    axis.name.c_str());
    util::require(points_ <= std::numeric_limits<std::size_t>::max() /
                                 axis.values.size(),
                  "sweep grid size overflows");
    points_ *= axis.values.size();
    for (const double value : axis.values) {
      append_coordinate(label_text_, axis.name, value);
      label_ends_.push_back(label_text_.size());
    }
  }
}

void SweepGrid::at_into(std::size_t flat, Scenario& out) const {
  if (flat >= points_)
    throw util::InvalidArgument(
        util::format("sweep grid index %zu out of range (%zu points)", flat,
                     points_));
  out.system = base_system_;
  out.workflow = base_workflow_;

  // Row-major cross product: the first axis varies slowest.  The params
  // vector is resized (not rebuilt) so its name strings keep their
  // capacity across points, and the label joins the values' text, made
  // by the constructor, with single spaces.
  out.params.resize(axes_.size());
  out.label.clear();
  std::size_t remainder = flat;
  std::size_t stride = points_;
  std::size_t first_text = 0;  // index of this axis's first value text
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    const ParamAxis& axis = axes_[i];
    stride /= axis.values.size();
    const std::size_t index = remainder / stride;
    remainder %= stride;
    out.params[i].first = axis.name;
    out.params[i].second = axis.values[index];
    const std::size_t text = first_text + index;
    const std::size_t begin = text == 0 ? 0 : label_ends_[text - 1];
    if (i != 0) out.label += ' ';
    out.label.append(label_text_, begin, label_ends_[text] - begin);
    first_text += axis.values.size();
  }
  if (axes_.empty()) out.label = base_workflow_.name;

  double intra_factor = 1.0;
  double efficiency = 1.0;
  bool scale_intra = false;
  for (const auto& [name, value] : out.params) {
    if (name == "nodes_per_task") {
      intra_factor = value;
      scale_intra = true;
    } else if (name == "efficiency") {
      efficiency = value;
      scale_intra = true;
    } else if (name == "parallel_tasks") {
      out.workflow.parallel_tasks = positive_int_param(name, value);
    } else if (name == "total_tasks") {
      out.workflow.total_tasks = positive_int_param(name, value);
    } else if (name == "total_nodes") {
      out.system.total_nodes = positive_int_param(name, value);
    } else if (name == "fs_gbs") {
      out.system.fs_gbs = value;
    } else if (name == "external_gbs") {
      out.system.external_gbs = value;
    } else if (name == "nic_gbs") {
      out.system.node.nic_gbs = value;
    } else if (name == "peak_flops") {
      out.system.node.peak_flops = value;
    }
  }
  if (scale_intra) {
    out.workflow = core::scale_intra_task_parallelism(out.workflow,
                                                      intra_factor,
                                                      efficiency);
  }
}

util::Hash128 SweepGrid::grid_hash() const {
  // The grid identity: base inputs plus axes.  The JSON dumps are
  // insertion-order-stable canonical serializations; this runs once per
  // sweep, not per point.
  util::HashStream h;
  h.str("wfr-sweep-grid-v1");
  h.str(base_system_.to_json().dump());
  h.str(base_workflow_.to_json().dump());
  h.u64(axes_.size());
  for (const ParamAxis& axis : axes_) {
    h.str(axis.name);
    h.u64(axis.values.size());
    for (const double value : axis.values) h.f64(value);
  }
  return h.digest();
}

std::vector<Scenario> expand_grid(const core::SystemSpec& base_system,
                                  const core::WorkflowCharacterization& base,
                                  const std::vector<ParamAxis>& axes) {
  const SweepGrid grid(base_system, base, axes);
  std::vector<Scenario> scenarios(grid.size());
  for (std::size_t flat = 0; flat < grid.size(); ++flat) {
    try {
      grid.at_into(flat, scenarios[flat]);
    } catch (const util::InvalidArgument& e) {
      rethrow_row_error(flat, scenarios[flat].params, e);
    }
  }
  return scenarios;
}

namespace {

constexpr std::size_t kNoError = std::numeric_limits<std::size_t>::max();

/// Rows a streaming worker claims, evaluates and deposits per lock round
/// trip (fewer when the grid's end or the window's edge comes first).
constexpr std::size_t kClaimBatch = 16;

/// Shared state of one streaming fan-out: a claim frontier throttled
/// against the emit frontier (bounded reorder window), a ring of
/// completed-but-unemitted lines, and first-by-index error capture.
/// Workers format each row straight into its ring slot, and the emitter
/// sinks it from there, so line buffers are recycled instead of
/// reallocated every row.
struct StreamState {
  std::mutex mutex;
  std::condition_variable can_claim;
  std::condition_variable done;
  std::size_t next_claim = 0;
  std::size_t emit_next = 0;
  std::size_t end = 0;
  std::size_t window = 1;
  std::vector<std::string> ring;
  std::vector<char> ready;
  bool emitting = false;
  std::size_t live_runners = 0;
  std::exception_ptr error;
  std::size_t error_index = kNoError;
};

/// The streaming engine behind stream_lines: claim rows [start, end)
/// against the emit frontier in batches of up to kClaimBatch, evaluate out
/// of order, emit strictly in order with a single emitter and no
/// end-of-stream barrier.  `make_eval()` runs once per worker and returns
/// that worker's eval(row, std::string& line) — per-worker scratch (reused
/// scenario and ceilings) lives in the returned closure.
template <typename MakeEval>
void run_stream_engine(ThreadPool& pool, std::size_t start, std::size_t end,
                       std::size_t window, const MakeEval& make_eval,
                       const SweepRunner::LineSink& sink) {
  if (start >= end) return;

  // Single-job pools stream inline: claim order == emit order, no window
  // bookkeeping, exceptions propagate at the failing row, one line of
  // scratch for the whole run.
  if (pool.jobs() == 1) {
    auto eval = make_eval();
    std::string line;
    for (std::size_t row = start; row < end; ++row) {
      eval(row, line);
      sink(row, line);
    }
    return;
  }

  StreamState state;
  state.next_claim = start;
  state.emit_next = start;
  state.end = end;
  state.window = window;
  state.ring.resize(state.window);
  state.ready.assign(state.window, 0);

  auto worker = [&] {
    auto eval = make_eval();
    std::unique_lock<std::mutex> lock(state.mutex);
    for (;;) {
      state.can_claim.wait(lock, [&] {
        return state.next_claim >= state.end ||
               state.next_claim < state.emit_next + state.window ||
               state.error_index != kNoError;
      });
      if (state.next_claim >= state.end || state.error_index != kNoError)
        break;
      // A batch never reaches past the window's edge, so the window stays
      // a hard bound on rows claimed but not yet emitted.
      const std::size_t first = state.next_claim;
      const std::size_t count =
          std::min({kClaimBatch, state.end - first,
                    state.emit_next + state.window - first});
      state.next_claim += count;
      lock.unlock();

      // The slot of each claimed row last held a row already emitted, so
      // until the rows are marked ready this worker alone touches those
      // slots and formats into them unlocked.  In row order, up to the
      // first row that throws: every row below a recorded error is
      // already claimed and so still evaluated, so the error kept under
      // the min-index rule is the lowest failing row's.
      std::size_t evaluated = 0;
      std::exception_ptr error;
      for (; evaluated < count; ++evaluated) {
        const std::size_t row = first + evaluated;
        try {
          eval(row, state.ring[row % state.window]);
        } catch (...) {
          error = std::current_exception();
          break;
        }
      }

      lock.lock();
      for (std::size_t i = 0; i < evaluated; ++i)
        state.ready[(first + i) % state.window] = 1;
      if (error && first + evaluated < state.error_index) {
        state.error_index = first + evaluated;
        state.error = std::move(error);
        state.can_claim.notify_all();
      }
      // Drain the contiguous ready head, all of it (never more than the
      // window) per lock round trip.  Only one worker emits at a time and
      // rows leave in strictly increasing order; the sink runs unlocked,
      // on each line in its ring slot, so evaluation continues behind it.
      // emit_next moves only after the sink returns, so no claim reaches a
      // slot being sunk; a run within the window never wraps onto its own
      // slots.
      while (!state.emitting && state.error_index == kNoError) {
        const std::size_t first_row = state.emit_next;
        const std::size_t limit =
            std::min(state.window, state.end - first_row);
        std::size_t batch = 0;
        while (batch < limit &&
               state.ready[(first_row + batch) % state.window])
          ++batch;
        if (batch == 0) break;
        state.emitting = true;
        lock.unlock();
        std::size_t sunk = 0;
        std::exception_ptr sink_error;
        try {
          for (; sunk < batch; ++sunk) {
            const std::size_t row = first_row + sunk;
            sink(row, state.ring[row % state.window]);
          }
        } catch (...) {
          sink_error = std::current_exception();
        }
        lock.lock();
        state.emitting = false;
        for (std::size_t i = 0; i < sunk; ++i)
          state.ready[(first_row + i) % state.window] = 0;
        state.emit_next += sunk;
        if (sink_error && first_row + sunk < state.error_index) {
          state.error_index = first_row + sunk;
          state.error = std::move(sink_error);
        }
        state.can_claim.notify_all();
      }
    }
    if (--state.live_runners == 0) state.done.notify_all();
  };

  const std::size_t rows = end - start;
  const std::size_t runners =
      std::min<std::size_t>(static_cast<std::size_t>(pool.jobs()), rows);
  state.live_runners = runners;
  for (std::size_t r = 0; r < runners; ++r) pool.submit(worker);

  std::unique_lock<std::mutex> lock(state.mutex);
  state.done.wait(lock, [&state] { return state.live_runners == 0; });
  if (state.error) std::rethrow_exception(state.error);
}

}  // namespace

void SweepRunner::stream_lines(const SweepGrid& grid,
                               const StreamOptions& options,
                               const LineSink& sink) {
  util::require(static_cast<bool>(sink), "stream_lines needs a sink");
  util::require(options.reorder_window >= 1,
                "stream reorder_window must be >= 1");
  options.shard.validate();
  const std::size_t rows = options.shard.rows(grid.size());
  if (options.shard.sharded()) {
    util::require(options.start_row <= rows,
                  "stream start_row %zu beyond shard (%zu rows)",
                  options.start_row, rows);
  } else {
    util::require(options.start_row <= rows,
                  "stream start_row %zu beyond grid (%zu points)",
                  options.start_row, rows);
  }
  const ShardSpec shard = options.shard;
  obs::Tracer* const tracer = tracer_.load(std::memory_order_acquire);

  // Per-worker scratch: the materialized scenario and the label-free
  // ceiling set keep their heap capacity across every point the worker
  // evaluates; the only per-point string the hot path creates is the
  // binding label.
  auto make_eval = [&grid, shard, tracer] {
    return [&grid, shard, tracer, scenario = Scenario(),
            ceilings = std::vector<core::CeilingSpec>()](
               std::size_t row, std::string& line) mutable {
      const std::size_t flat = shard.global_row(row);
      ModelSummary summary;
      try {
        grid.at_into(flat, scenario);
        obs::SpanScope span(tracer, "evaluate", "sweep");
        if (span.active() && !scenario.label.empty())
          span.arg("scenario", scenario.label);
        summary = evaluate_model_summary(scenario, ceilings);
      } catch (const util::InvalidArgument& e) {
        rethrow_row_error(flat, scenario.params, e);
      }
      line.clear();
      append_result_line(line, scenario.label, scenario.params,
                         summary.parallelism_wall,
                         summary.attainable_tps_at_wall, summary.binding_label,
                         summary.binding_channel, summary.slot_seconds,
                         summary.campaign_makespan_seconds);
      line += '\n';
    };
  };
  run_stream_engine(pool_, options.start_row, rows, options.reorder_window,
                    make_eval, sink);
}

}  // namespace wfr::exec

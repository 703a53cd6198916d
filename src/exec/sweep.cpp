#include "exec/sweep.hpp"

#include <charconv>
#include <cmath>
#include <limits>

#include "core/advisor.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace wfr::exec {

std::string scenario_key(const Scenario& scenario) {
  // Canonical parameters: the JSON serializations are produced by fixed
  // insertion-order emitters, so equal inputs yield equal bytes.  The
  // label and grid coordinates are presentation-only and excluded.
  return scenario.system.to_json().dump() + "\x1f" +
         scenario.workflow.to_json().dump() + "\x1f" +
         std::to_string(scenario.seed);
}

util::Hash128 scenario_hash(const Scenario& scenario) {
  // Same canonical parameter set as scenario_key, digested field-by-field
  // (no JSON materialization on the per-point hot path).  Field order is
  // fixed and strings are length-prefixed, so equal parameters always
  // digest equally.  Extend this whenever SystemSpec or
  // WorkflowCharacterization grows a field.
  util::HashStream h;
  h.str("wfr-scenario-v1");
  const core::SystemSpec& s = scenario.system;
  h.str(s.name);
  h.f64(s.node.peak_flops);
  h.f64(s.node.dram_gbs);
  h.f64(s.node.hbm_gbs);
  h.f64(s.node.pcie_gbs);
  h.f64(s.node.nic_gbs);
  h.i64(s.total_nodes);
  h.f64(s.fs_gbs);
  h.f64(s.external_gbs);
  const core::WorkflowCharacterization& w = scenario.workflow;
  h.str(w.name);
  h.i64(w.total_tasks);
  h.i64(w.parallel_tasks);
  h.i64(w.nodes_per_task);
  h.f64(w.flops_per_node);
  h.f64(w.dram_bytes_per_node);
  h.f64(w.hbm_bytes_per_node);
  h.f64(w.pcie_bytes_per_node);
  h.f64(w.network_bytes_per_task);
  h.f64(w.fs_bytes_per_task);
  h.f64(w.external_bytes_per_task);
  h.f64(w.overhead_seconds_per_task);
  h.f64(w.makespan_seconds);
  h.f64(w.target_makespan_seconds);
  h.u64(scenario.seed);
  return h.digest();
}

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

ScenarioResult evaluate_model_scenario(const Scenario& scenario) {
  ScenarioResult result;
  result.label = scenario.label;
  result.scenario = scenario;
  auto model = std::make_shared<core::RooflineModel>(
      core::build_model(scenario.system, scenario.workflow));
  result.parallelism_wall = model->parallelism_wall();
  const double wall = static_cast<double>(result.parallelism_wall);
  result.attainable_tps_at_wall = model->attainable_tps(wall);
  const core::Ceiling& binding = model->binding_ceiling(wall);
  result.binding_label = binding.label;
  result.binding_channel = core::channel_name(binding.channel);
  result.slot_seconds = model->binding_ceiling(1.0).seconds_per_task;
  result.campaign_makespan_seconds =
      static_cast<double>(scenario.workflow.total_tasks) /
      result.attainable_tps_at_wall;
  result.model = std::move(model);
  return result;
}

std::vector<ScenarioResult> SweepRunner::run_models(
    const std::vector<Scenario>& scenarios) {
  std::vector<ScenarioResult> results = run<ScenarioResult>(
      scenarios, [](const Scenario& s) { return evaluate_model_scenario(s); });
  // Cache hits carry the first-evaluated point's labeling; restore each
  // requested point's own presentation metadata (the model stays shared).
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    results[i].label = scenarios[i].label;
    results[i].scenario = scenarios[i];
  }
  return results;
}

SweepStats SweepRunner::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  SweepStats snapshot = stats_;
  snapshot.cache_entries = static_cast<std::uint64_t>(lru_.size());
  return snapshot;
}

void SweepRunner::export_metrics(obs::MetricsRegistry& registry) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Delta export: add only what accrued since the previous call, so a
  // shared runner scraped once per request never double-counts.
  registry.counter("sweep.scenarios")
      .increment(static_cast<double>(stats_.scenarios - exported_.scenarios));
  registry.counter("sweep.cache_hits")
      .increment(static_cast<double>(stats_.cache_hits - exported_.cache_hits));
  registry.counter("sweep.cache_misses")
      .increment(
          static_cast<double>(stats_.cache_misses - exported_.cache_misses));
  registry.counter("sweep.cache_evictions")
      .increment(static_cast<double>(stats_.cache_evictions -
                                     exported_.cache_evictions));
  registry.gauge("sweep.cache_entries")
      .set(static_cast<double>(lru_.size()));
  exported_ = stats_;
}

void SweepRunner::complete_entry(const CacheKey& key) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = cache_.find(key);
  if (it == cache_.end()) return;  // unreachable: in-flight entries pinned
  if (cache_capacity_ == 0) {
    // No retention: the entry served concurrent waiters via the shared
    // future; drop it now that evaluation finished.
    cache_.erase(it);
    return;
  }
  it->second.completed = true;
  lru_.push_front(key);
  it->second.lru = lru_.begin();
  while (lru_.size() > cache_capacity_) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.cache_evictions;
  }
}

SweepRunner::SweepRunner(SweepOptions options)
    : pool_(options.jobs), cache_capacity_(options.cache_capacity) {}

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

std::string scenario_result_line(const ScenarioResult& result) {
  std::string line;
  append_result_line(line, result.label, result.scenario.params,
                     result.parallelism_wall, result.attainable_tps_at_wall,
                     result.binding_label, result.binding_channel,
                     result.slot_seconds, result.campaign_makespan_seconds);
  return line;
}

namespace {

/// The grid axis names SweepGrid understands.
constexpr const char* kKnownAxes[] = {
    "nodes_per_task", "efficiency",   "parallel_tasks", "total_tasks",
    "total_nodes",    "fs_gbs",       "external_gbs",   "nic_gbs",
    "peak_flops",
};

bool known_axis(const std::string& name) {
  for (const char* axis : kKnownAxes)
    if (name == axis) return true;
  return false;
}

// Error text is built only on the failing path — this runs per integer
// axis per grid point.
int positive_int_param(const std::string& name, double value) {
  const int rounded = static_cast<int>(std::llround(value));
  if (!(rounded >= 1 && std::abs(value - rounded) < 1e-9))
    throw util::InvalidArgument(
        "sweep axis '" + name + "' needs positive integers, got " +
        util::format("%g", value));
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
    util::require(known_axis(axis.name),
                  "unknown sweep axis '" + axis.name + "'");
    util::require(!axis.values.empty(),
                  "sweep axis '" + axis.name + "' has no values");
    // A repeated axis would emit duplicate JSON keys in params{} — reject
    // it here, where the message can still name the axis.
    for (std::size_t j = 0; j < i; ++j)
      util::require(axes_[j].name != axis.name,
                    "duplicate sweep axis '" + axis.name + "'");
    util::require(points_ <= std::numeric_limits<std::size_t>::max() /
                                 axis.values.size(),
                  "sweep grid size overflows");
    points_ *= axis.values.size();
  }
}

Scenario SweepGrid::at(std::size_t flat) const {
  Scenario scenario;
  at_into(flat, scenario);
  return scenario;
}

void SweepGrid::at_into(std::size_t flat, Scenario& out) const {
  if (flat >= points_)
    throw util::InvalidArgument(
        util::format("sweep grid index %zu out of range (%zu points)", flat,
                     points_));
  out.system = base_system_;
  out.workflow = base_workflow_;
  out.seed = 0;

  // Row-major cross product: the first axis varies slowest.  The params
  // vector is resized (not rebuilt) so its name strings keep their
  // capacity across points.
  out.params.resize(axes_.size());
  std::size_t remainder = flat;
  std::size_t stride = points_;
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    const ParamAxis& axis = axes_[i];
    stride /= axis.values.size();
    out.params[i].first = axis.name;
    out.params[i].second = axis.values[remainder / stride];
    remainder %= stride;
  }

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

  out.label.clear();
  char value_text[32];
  for (const auto& [name, value] : out.params) {
    if (!out.label.empty()) out.label += ' ';
    out.label += name;
    out.label += '=';
    // general at precision 6 is printf's "%g", without its format parsing.
    out.label.append(value_text,
                     std::to_chars(value_text, value_text + sizeof(value_text),
                                   value, std::chars_format::general, 6)
                         .ptr);
  }
  if (out.label.empty()) out.label = base_workflow_.name;
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
  std::vector<Scenario> scenarios;
  scenarios.reserve(grid.size());
  for (std::size_t flat = 0; flat < grid.size(); ++flat)
    scenarios.push_back(grid.at(flat));
  return scenarios;
}

namespace {

constexpr std::size_t kNoError = std::numeric_limits<std::size_t>::max();

/// Shared state of one streaming fan-out: a claim frontier throttled
/// against the emit frontier (bounded reorder window), a ring of
/// completed-but-unemitted rows, and first-by-index error capture.  Rows
/// circulate by swap — worker scratch into the ring, ring slot into the
/// emit scratch — so Row heap capacity (NDJSON buffers, scenario
/// strings) is recycled instead of reallocated every row.
template <typename Row>
struct StreamState {
  std::mutex mutex;
  std::condition_variable can_claim;
  std::condition_variable done;
  std::size_t next_claim = 0;
  std::size_t emit_next = 0;
  std::size_t end = 0;
  std::size_t window = 1;
  std::vector<Row> ring;
  std::vector<char> ready;
  /// The row currently handed to emit (single emitter; reused).
  Row emit_value;
  bool emitting = false;
  std::size_t live_runners = 0;
  std::exception_ptr error;
  std::size_t error_index = kNoError;
};

template <typename Row>
void record_stream_error(StreamState<Row>& state, std::size_t index,
                         std::exception_ptr error) {
  std::unique_lock<std::mutex> lock(state.mutex);
  if (index < state.error_index) {
    state.error_index = index;
    state.error = std::move(error);
  }
  state.can_claim.notify_all();
}

/// The streaming engine shared by stream_models and stream_lines: claim
/// rows [start, end) against the emit frontier, evaluate out of order,
/// emit strictly in order with a single emitter and no end-of-stream
/// barrier.  `make_eval()` runs once per worker and returns that
/// worker's eval(row, Row&) — per-worker scratch (arenas, reused
/// scenarios) lives in the returned closure.  `emit(row, Row&)` observes
/// the RowSink protocol.
template <typename Row, typename MakeEval, typename Emit>
void run_stream_engine(ThreadPool& pool, std::size_t start, std::size_t end,
                       std::size_t window, const MakeEval& make_eval,
                       const Emit& emit) {
  if (start >= end) return;

  // Single-job pools stream inline: claim order == emit order, no window
  // bookkeeping, exceptions propagate at the failing row, one Row of
  // scratch for the whole run.
  if (pool.jobs() == 1) {
    auto eval = make_eval();
    Row value{};
    for (std::size_t row = start; row < end; ++row) {
      eval(row, value);
      emit(row, value);
    }
    return;
  }

  StreamState<Row> state;
  state.next_claim = start;
  state.emit_next = start;
  state.end = end;
  state.window = window;
  state.ring.resize(state.window);
  state.ready.assign(state.window, 0);

  auto worker = [&] {
    auto eval = make_eval();
    Row scratch{};
    for (;;) {
      std::size_t row;
      {
        std::unique_lock<std::mutex> lock(state.mutex);
        state.can_claim.wait(lock, [&] {
          return state.next_claim >= state.end ||
                 state.next_claim < state.emit_next + state.window ||
                 state.error_index != kNoError;
        });
        if (state.next_claim >= state.end || state.error_index != kNoError)
          break;
        row = state.next_claim++;
      }
      try {
        eval(row, scratch);
      } catch (...) {
        record_stream_error(state, row, std::current_exception());
        continue;
      }
      std::unique_lock<std::mutex> lock(state.mutex);
      using std::swap;
      swap(state.ring[row % state.window], scratch);
      state.ready[row % state.window] = 1;
      // Drain the contiguous head.  Only one worker emits at a time and
      // rows leave in strictly increasing order; emit runs unlocked so
      // evaluation continues behind it.
      while (!state.emitting && state.error_index == kNoError &&
             state.emit_next < state.end &&
             state.ready[state.emit_next % state.window]) {
        state.emitting = true;
        const std::size_t emit_row = state.emit_next;
        swap(state.ring[emit_row % state.window], state.emit_value);
        state.ready[emit_row % state.window] = 0;
        lock.unlock();
        std::exception_ptr sink_error;
        try {
          emit(emit_row, state.emit_value);
        } catch (...) {
          sink_error = std::current_exception();
        }
        lock.lock();
        state.emitting = false;
        if (sink_error) {
          if (emit_row < state.error_index) {
            state.error_index = emit_row;
            state.error = std::move(sink_error);
          }
          state.can_claim.notify_all();
          break;
        }
        ++state.emit_next;
        state.can_claim.notify_all();
      }
    }
    std::unique_lock<std::mutex> lock(state.mutex);
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

/// Shared option validation for the streaming entry points; returns the
/// number of shard-local rows.
std::size_t check_stream_options(const SweepGrid& grid,
                                 const StreamOptions& options,
                                 bool have_sink, const char* who) {
  util::require(have_sink, std::string(who) + " needs a sink");
  util::require(options.reorder_window >= 1,
                "stream reorder_window must be >= 1");
  options.shard.validate();
  const std::size_t rows = options.shard.rows(grid.size());
  if (options.shard.sharded()) {
    util::require(options.start_row <= rows,
                  util::format("stream start_row %zu beyond shard (%zu rows)",
                               options.start_row, rows));
  } else {
    util::require(options.start_row <= rows,
                  util::format("stream start_row %zu beyond grid (%zu points)",
                               options.start_row, rows));
  }
  return rows;
}

}  // namespace

void SweepRunner::stream_models(const SweepGrid& grid,
                                const StreamOptions& options,
                                const RowSink& sink) {
  const std::size_t rows = check_stream_options(
      grid, options, static_cast<bool>(sink), "stream_models");
  const std::size_t total = grid.size();
  const ShardSpec shard = options.shard;

  auto make_eval = [this, &grid, shard, total] {
    std::function<ScenarioResult(const Scenario&)> eval_model =
        [](const Scenario& s) { return evaluate_model_scenario(s); };
    return [this, &grid, shard, total,
            eval_model = std::move(eval_model)](std::size_t row,
                                                ScenarioResult& out) {
      Scenario scenario = grid.at(shard.global_row(row, total));
      out = evaluate_cached<ScenarioResult>(scenario, eval_model);
      // A cache hit returns the first-evaluated point's presentation
      // metadata; restore the requested row's own label (the run_models
      // pattern, docs/PARALLELISM.md).
      out.label = scenario.label;
      out.scenario = std::move(scenario);
    };
  };
  run_stream_engine<ScenarioResult>(
      pool_, options.start_row, rows, options.reorder_window, make_eval,
      [&sink](std::size_t row, ScenarioResult& value) { sink(row, value); });
}

void SweepRunner::stream_lines(const SweepGrid& grid,
                               const StreamOptions& options,
                               const LineSink& sink) {
  const std::size_t rows = check_stream_options(
      grid, options, static_cast<bool>(sink), "stream_lines");
  const std::size_t total = grid.size();
  const ShardSpec shard = options.shard;

  // Per-worker arena: the materialized scenario and the label-free
  // ceiling set keep their heap capacity across every point the worker
  // evaluates; the only per-point string the hot path creates is the
  // binding label inside the memoized summary.
  struct Arena {
    Scenario scenario;
    std::vector<core::CeilingSpec> ceilings;
  };
  auto make_eval = [this, &grid, shard, total] {
    auto arena = std::make_shared<Arena>();
    std::function<ModelSummary(const Scenario&)> eval_summary =
        [arena](const Scenario& s) {
          return evaluate_model_summary(s, arena->ceilings);
        };
    return [this, &grid, shard, total, arena,
            eval_summary = std::move(eval_summary)](std::size_t row,
                                                    std::string& out) {
      grid.at_into(shard.global_row(row, total), arena->scenario);
      const ModelSummary summary =
          evaluate_cached<ModelSummary>(arena->scenario, eval_summary);
      out.clear();
      append_result_line(out, arena->scenario.label, arena->scenario.params,
                         summary.parallelism_wall,
                         summary.attainable_tps_at_wall, summary.binding_label,
                         summary.binding_channel, summary.slot_seconds,
                         summary.campaign_makespan_seconds);
      out += '\n';
    };
  };
  run_stream_engine<std::string>(
      pool_, options.start_row, rows, options.reorder_window, make_eval,
      [&sink](std::size_t row, std::string& line) {
        sink(row, std::string_view(line));
      });
}

}  // namespace wfr::exec

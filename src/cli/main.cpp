// wfr — the Workflow Roofline command-line tool.
//
// The command table in main lists every subcommand with the options it
// reads: `wfr help` prints it, and parse_args reads each command line
// against it.  A line the table rejects exits 1 before the command reads
// or writes a file.  What each subcommand does is said above its cmd_*
// function.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "archetypes/generators.hpp"
#include "check/differential.hpp"
#include "core/advisor.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/observation.hpp"
#include "core/characterization.hpp"
#include "core/compare.hpp"
#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "core/system_spec.hpp"
#include "dag/wdl.hpp"
#include "exec/checkpoint.hpp"
#include "exec/shard.hpp"
#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "workflows/wfcommons.hpp"
#include "plot/ascii.hpp"
#include "plot/gantt_plot.hpp"
#include "plot/roofline_plot.hpp"
#include "roofline/drilldown.hpp"
#include "serve/app.hpp"
#include "serve/server.hpp"
#include "sim/runner.hpp"
#include "trace/summary.hpp"
#include "util/error.hpp"
#include "util/file.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace wfr;

// Checked IO (util/file.hpp): reads and writes throw with the path in the
// message instead of silently producing truncated artifacts.
using util::read_file;

// Workflow inputs accept "-" for stdin so `wfr import` pipes straight
// into analyze/run/simulate/sweep.
std::string read_workflow_text(const std::string& arg) {
  if (arg == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    return buffer.str();
  }
  return read_file(arg);
}

core::SystemSpec load_system(const std::string& arg) {
  if (std::optional<core::SystemSpec> preset = core::SystemSpec::preset(arg))
    return *std::move(preset);
  return core::SystemSpec::from_json(util::Json::parse(read_file(arg)));
}

struct Args {
  /// Tokens that are not options ("wfr import a.json b.json").
  std::vector<std::string> positional;
  /// Options in command-line order; only a kRepeated option repeats.
  std::vector<std::pair<std::string, std::string>> options;
  bool flag(std::string_view name) const {
    return get_optional(name).has_value();
  }
  /// The value of an option parse_args made sure is given.
  std::string get(std::string_view name) const {
    return get_optional(name).value();
  }
  std::optional<std::string> get_optional(std::string_view name) const {
    for (const auto& [key, value] : options)
      if (key == name) return value;
    return std::nullopt;
  }
  /// Every value of a repeated option, in command-line order.
  std::vector<std::string> get_all(std::string_view name) const {
    std::vector<std::string> values;
    for (const auto& [key, value] : options)
      if (key == name) values.push_back(value);
    return values;
  }
};

/// How a command reads one of its options.
enum class Use {
  kOptional,
  kRequired,
  kEither,    // required unless another kEither option is given
  kRepeated,  // optional, and every value is read
  kHidden,    // optional and left out of `wfr help` (a test hook)
};

struct Option {
  std::string_view name;
  /// The value's placeholder in `wfr help`; empty for a flag, which
  /// never takes a value.
  std::string_view value = {};
  Use use = Use::kOptional;
};

struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<Option> options;
  /// The positional arguments' placeholder in `wfr help`; empty when the
  /// command takes none, so that a stray word is an error.
  std::string_view positional = {};
};

/// Reads argv[2...] against `command`'s table entry in one pass.  An
/// option the command does not read, a word it takes no positional for,
/// a value option with no value (last, or followed by another --option),
/// a repeat of an option that is not kRepeated and a missing required
/// option all throw.
Args parse_args(const Command& command, int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (!token.starts_with("--")) {
      if (command.positional.empty())
        throw util::InvalidArgument("unexpected argument '" + token + "'");
      args.positional.push_back(token);
      continue;
    }
    const std::string name = token.substr(2);
    const auto option = std::ranges::find(command.options, name, &Option::name);
    if (option == command.options.end())
      throw util::InvalidArgument("unknown option " + token + " for wfr " +
                                  std::string(command.name));
    if (option->use != Use::kRepeated && args.flag(name))
      throw util::InvalidArgument(token + " given twice");
    if (!option->value.empty() &&
        (i + 1 == argc || util::starts_with(argv[i + 1], "--")))
      throw util::InvalidArgument(token + " needs a value (" +
                                  std::string(option->value) + ")");
    args.options.emplace_back(name, option->value.empty() ? "" : argv[++i]);
  }
  std::string either;
  bool either_given = false;
  for (const Option& option : command.options) {
    if (option.use == Use::kRequired && !args.flag(option.name))
      throw util::InvalidArgument("missing required option --" +
                                  std::string(option.name));
    if (option.use != Use::kEither) continue;
    either += (either.empty() ? "--" : " or --") + std::string(option.name);
    either_given = either_given || args.flag(option.name);
  }
  if (!either.empty() && !either_given)
    throw util::InvalidArgument("missing required option " + either);
  return args;
}

// Numeric flags parse through util::parse_*_flag (util/parse.hpp): the
// whole token must be consumed, so typos like "--port 80x" are rejected
// with the flag name and offending text instead of being prefix-parsed.
using util::parse_double_flag;
using util::parse_long_flag;
using util::parse_long_flag_in;
using util::parse_u64_flag;

// --target on analyze and sweep: seconds or a duration ("10 min").  A
// non-positive target is an error, never "no target".
double parse_target(const std::string& text) {
  const double seconds = util::parse_seconds(text);
  util::require(seconds > 0.0, "--target must be > 0, got '%s'",
                text.c_str());
  return seconds;
}

void emit_model_outputs(const core::RooflineModel& model, const Args& args) {
  std::cout << model.report();
  if (!model.dots().empty()) std::cout << "\n" << core::advise(model).to_string();
  if (args.flag("ascii")) std::cout << "\n" << plot::ascii_roofline(model);
  if (auto svg = args.get_optional("svg")) {
    plot::write_roofline_svg(model, *svg);
    std::cout << "wrote " << *svg << "\n";
  }
}

// wfr analyze — characterize a workflow description, run it through the
// simulator, print the model report and optimization advice, and
// optionally render the roofline.  --node-roofline drills down into the
// traditional node Roofline when the workflow is node-bound.
int cmd_analyze(const Args& args) {
  const core::SystemSpec system = load_system(args.get("system"));
  const dag::WorkflowGraph graph =
      dag::load_workflow(read_workflow_text(args.get("workflow")));

  const trace::WorkflowTrace trace =
      sim::run_workflow(graph, system.to_machine());
  core::WorkflowCharacterization c = core::characterize_trace(graph, trace);
  if (auto target = args.get_optional("target"))
    c.target_makespan_seconds = parse_target(*target);

  core::RooflineModel model = core::build_model(system, c);
  std::cout << trace::describe_trace(trace) << "\n";
  std::cout << core::pipeline_report(graph, trace).to_string() << "\n";
  emit_model_outputs(model, args);

  if (auto node_svg = args.get_optional("node-roofline")) {
    const roofline::DrillDown drill =
        roofline::drill_down(model, graph, trace);
    std::cout << "\n" << drill.reason << "\n";
    if (drill.applicable) {
      std::cout << drill.node_roofline.report();
      drill.node_roofline.write_svg(*node_svg);
      std::cout << "wrote " << *node_svg << "\n";
    }
  }
  return 0;
}

// wfr model — a roofline built straight from a characterization file,
// with no execution: the "analyze without traces" path.
int cmd_model(const Args& args) {
  const core::SystemSpec system = load_system(args.get("system"));
  const core::WorkflowCharacterization c =
      core::WorkflowCharacterization::from_json(
          util::Json::parse(read_file(args.get("characterization"))));
  core::RooflineModel model = core::build_model(system, c);
  emit_model_outputs(model, args);
  return 0;
}

// wfr simulate — execute the workflow on the simulator and print the
// trace.
int cmd_simulate(const Args& args) {
  const core::SystemSpec system = load_system(args.get("system"));
  const dag::WorkflowGraph graph =
      dag::load_workflow(read_workflow_text(args.get("workflow")));
  const trace::WorkflowTrace trace =
      sim::run_workflow(graph, system.to_machine());
  std::cout << trace::describe_trace(trace);
  std::cout << "\n" << plot::ascii_gantt(trace);
  if (auto gantt = args.get_optional("gantt")) {
    plot::write_gantt_svg(trace, *gantt);
    std::cout << "wrote " << *gantt << "\n";
  }
  if (auto json = args.get_optional("json")) {
    util::write_file(*json, trace.to_json().pretty() + "\n");
    std::cout << "wrote " << *json << "\n";
  }
  return 0;
}

// wfr run — execute the workflow with full observation: per-phase spans
// and per-resource counter tracks export as a Chrome/Perfetto trace_event
// file (open at https://ui.perfetto.dev), engine and runner self-metrics
// plus p50/p95 shared-resource utilization export as a metrics snapshot,
// and --svg renders the roofline with the *measured* operating point
// placed next to the analytic ceilings.
int cmd_run(const Args& args) {
  const core::SystemSpec system = load_system(args.get("system"));
  const dag::WorkflowGraph graph =
      dag::load_workflow(read_workflow_text(args.get("workflow")));

  obs::Observation observation;
  sim::RunOptions options;
  options.observe = &observation;
  const sim::RunResult result =
      sim::run_workflow_detailed(graph, system.to_machine(), options);

  std::cout << trace::describe_trace(result.trace) << "\n";

  if (!result.resource_summaries.empty()) {
    util::TextTable table({"resource", "capacity", "busy", "delivered",
                           "p50 util", "p95 util", "max util",
                           "peak flows"});
    for (std::size_t column = 1; column <= 7; ++column)
      table.set_align(column, util::Align::kRight);
    for (const obs::ResourceSummary& s : result.resource_summaries) {
      table.add_row({s.name, util::format_rate(s.capacity),
                     util::format_seconds(s.busy_seconds),
                     util::format_bytes(s.delivered_bytes),
                     util::format("%.0f%%", 100.0 * s.p50_utilization),
                     util::format("%.0f%%", 100.0 * s.p95_utilization),
                     util::format("%.0f%%", 100.0 * s.max_utilization),
                     std::to_string(s.peak_active_flows)});
    }
    std::cout << "shared-resource utilization (time-weighted):\n"
              << table.str() << "\n";
  }

  const roofline::OperatingPoint point =
      roofline::measured_operating_point(result);
  std::cout << point.summary << "\n";

  if (auto path = args.get_optional("chrome-trace")) {
    obs::write_chrome_trace(*path, result.trace,
                            observation.probe.series());
    std::cout << "wrote " << *path
              << " (open at https://ui.perfetto.dev or chrome://tracing)\n";
  }
  if (auto path = args.get_optional("metrics")) {
    util::write_file(*path, observation.to_json().pretty() + "\n");
    std::cout << "wrote " << *path << "\n";
  }
  if (auto gantt = args.get_optional("gantt")) {
    plot::write_gantt_svg(result.trace, *gantt);
    std::cout << "wrote " << *gantt << "\n";
  }
  if (auto svg = args.get_optional("svg")) {
    core::WorkflowCharacterization c =
        core::characterize_trace(graph, result.trace);
    core::RooflineModel model = core::build_model(system, c);
    roofline::add_operating_point(&model, point);
    plot::write_roofline_svg(model, *svg);
    std::cout << "wrote " << *svg << "\n";
  }
  return 0;
}

// wfr sweep --metrics: the count of evaluated scenarios as a metrics
// snapshot (docs/OBSERVABILITY.md).
void write_sweep_metrics(const std::string& path, std::uint64_t scenarios) {
  obs::MetricsRegistry registry;
  registry.counter("sweep.scenarios").increment(scenarios);
  util::write_file(path, registry.snapshot().pretty() + "\n");
  std::cout << "wrote " << path << "\n";
}

// wfr sweep --stream — the campaign-scale path: rows stream to stdout
// (and --ndjson) in deterministic row order as slots complete, with no
// end-of-grid buffering, so RSS stays flat at any grid size.  With
// --checkpoint the sweep periodically persists its progress (grid hash,
// emitted-row prefix, output byte count; exec/checkpoint.hpp) and
// --resume picks up where a killed run left off, re-assembling the
// NDJSON file byte-identically to an uninterrupted run.  With
// --shards N --shard-id I this process streams only shard I of the grid
// (shard-local rows, shard-keyed checkpoints; exec/shard.hpp), and
// `wfr merge` re-interleaves the N parts.
int run_sweep_stream(const Args& args, const exec::SweepGrid& grid,
                     const exec::SweepOptions& options) {
  if (args.get_optional("svg"))
    throw util::InvalidArgument(
        "--svg buffers every scenario model; drop --stream to render it");

  exec::StreamOptions stream;
  if (auto window = args.get_optional("reorder-window"))
    stream.reorder_window = static_cast<std::size_t>(
        parse_long_flag_in("reorder-window", *window, 1, 1 << 24));

  exec::ShardSpec& shard = stream.shard;
  if (auto shards = args.get_optional("shards"))
    shard.count =
        static_cast<int>(parse_long_flag_in("shards", *shards, 1, 1 << 12));
  if (auto id = args.get_optional("shard-id")) {
    if (!args.get_optional("shards"))
      throw util::InvalidArgument("--shard-id needs --shards");
    shard.index = static_cast<int>(
        parse_long_flag_in("shard-id", *id, 0, shard.count - 1));
  } else if (shard.sharded()) {
    throw util::InvalidArgument(
        "--shards needs --shard-id (which slice this process owns)");
  }

  const auto ndjson_path = args.get_optional("ndjson");
  auto checkpoint_path = args.get_optional("checkpoint");
  const auto resume_path = args.get_optional("resume");
  if ((checkpoint_path || resume_path) && !ndjson_path)
    throw util::InvalidArgument(
        "--checkpoint/--resume need --ndjson: the checkpoint records the "
        "output file's byte length");
  // Resuming keeps checkpointing to the same file unless overridden.
  if (resume_path && !checkpoint_path) checkpoint_path = resume_path;

  std::size_t checkpoint_every = 4096;
  if (auto every = args.get_optional("checkpoint-every"))
    checkpoint_every = static_cast<std::size_t>(
        parse_long_flag_in("checkpoint-every", *every, 1, 1 << 30));
  // Throw (after flushing checkpoints written so far) once this many new
  // rows have been emitted — the crash half of the resume tests.
  std::optional<std::uint64_t> abort_after;
  if (auto rows = args.get_optional("abort-after-rows"))
    abort_after = parse_u64_flag("abort-after-rows", *rows);

  std::uint64_t ndjson_bytes = 0;
  std::ofstream out;
  if (resume_path) {
    const exec::SweepCheckpoint ckpt = exec::validate_resume(
        *resume_path, grid.grid_hash(), shard, shard.rows(grid.size()),
        *ndjson_path);
    stream.start_row = static_cast<std::size_t>(ckpt.rows);
    ndjson_bytes = ckpt.ndjson_bytes;
    out.open(*ndjson_path, std::ios::binary | std::ios::app);
  } else if (ndjson_path) {
    out.open(*ndjson_path, std::ios::binary | std::ios::trunc);
  }
  if (ndjson_path && !out)
    throw util::Error("cannot write '" + *ndjson_path +
                      "': failed to open for writing");

  exec::SweepRunner runner(options);
  std::uint64_t rows_done = stream.start_row;
  std::uint64_t new_rows = 0;

  // Flush-then-checkpoint: the output file is always at least as long as
  // the checkpoint claims, even if the process dies right after.
  auto save = [&] {
    out.flush();
    if (!out)
      throw util::Error("cannot write '" + *ndjson_path + "': flush failed");
    exec::save_checkpoint(*checkpoint_path,
                          {grid.grid_hash(), rows_done, ndjson_bytes, shard});
  };

  runner.stream_lines(
      grid, stream, [&](std::size_t row, std::string_view line) {
        std::cout << line;
        if (ndjson_path) {
          out.write(line.data(), static_cast<std::streamsize>(line.size()));
          if (!out)
            throw util::Error("cannot write '" + *ndjson_path +
                              "': write failed");
          ndjson_bytes += line.size();
        }
        rows_done = row + 1;
        ++new_rows;
        if (checkpoint_path && rows_done % checkpoint_every == 0) save();
        if (abort_after && new_rows >= *abort_after)
          throw util::Error(util::format(
              "sweep aborted after %llu rows (--abort-after-rows)",
              static_cast<unsigned long long>(new_rows)));
      });

  if (ndjson_path) {
    out.flush();
    if (!out)
      throw util::Error("cannot write '" + *ndjson_path + "': flush failed");
    out.close();
  }
  if (checkpoint_path)
    exec::save_checkpoint(*checkpoint_path,
                          {grid.grid_hash(), rows_done, ndjson_bytes, shard});

  if (shard.sharded()) {
    std::cout << util::format(
        "sweep shard %d/%d of '%s' on '%s': %llu of %zu points, "
        "%llu emitted\n",
        shard.index, shard.count, grid.base_workflow().name.c_str(),
        grid.base_system().name.c_str(),
        static_cast<unsigned long long>(shard.rows(grid.size())),
        grid.size(), static_cast<unsigned long long>(new_rows));
  } else {
    std::cout << util::format(
        "sweep of '%s' on '%s': %zu points, %llu emitted\n",
        grid.base_workflow().name.c_str(), grid.base_system().name.c_str(),
        grid.size(), static_cast<unsigned long long>(new_rows));
  }
  if (ndjson_path) std::cout << "wrote " << *ndjson_path << "\n";
  if (checkpoint_path) std::cout << "wrote " << *checkpoint_path << "\n";
  if (auto path = args.get_optional("metrics"))
    write_sweep_metrics(*path, new_rows);
  return 0;
}

// wfr sweep — fan a what-if parameter grid (the cross product of every
// --param axis) across the scenario thread pool and tabulate each point's
// parallelism wall, attainable throughput and binding ceiling, one NDJSON
// line per point; --svg renders a multi-curve roofline overlaying every
// scenario's binding ceiling.  --jobs (then WFR_JOBS, then the hardware)
// sets the worker count, and scenario fan-out follows the determinism
// contract (docs/PARALLELISM.md): output bytes are identical at --jobs 1
// and --jobs N.  A row that fails to build or evaluate stops the sweep
// with an error naming the row and its parameters; rows before it stay
// emitted.
int cmd_sweep(const Args& args) {
  // Every sweep path prints its rows on standard output already, so "-"
  // could only name a file called "-".
  if (args.get_optional("ndjson") == "-")
    throw util::InvalidArgument(
        "--ndjson - is not an output file: the rows already go to standard "
        "output; drop --ndjson or name a file");
  const core::SystemSpec system = load_system(args.get("system"));

  core::WorkflowCharacterization base;
  if (auto path = args.get_optional("characterization")) {
    base = core::WorkflowCharacterization::from_json(
        util::Json::parse(read_file(*path)));
  } else {
    // Characterize by one serial simulation; the sweep then explores the
    // model around that measured point.
    const dag::WorkflowGraph graph =
        dag::load_workflow(read_workflow_text(args.get("workflow")));
    base = core::characterize_trace(
        graph, sim::run_workflow(graph, system.to_machine()));
  }
  if (auto target = args.get_optional("target"))
    base.target_makespan_seconds = parse_target(*target);

  std::vector<exec::ParamAxis> axes;
  for (const std::string& spec : args.get_all("param")) {
    const auto eq = spec.find('=');
    if (eq == std::string::npos || eq == 0)
      throw util::InvalidArgument("bad --param '" + spec +
                                  "' (want name=v1,v2,...)");
    exec::ParamAxis axis;
    axis.name = spec.substr(0, eq);
    for (const std::string& token : util::split(spec.substr(eq + 1), ','))
      axis.values.push_back(parse_double_flag("param " + axis.name, token));
    axes.push_back(std::move(axis));
  }

  exec::SweepOptions options;
  if (auto jobs = args.get_optional("jobs"))
    options.jobs = static_cast<int>(parse_long_flag("jobs", *jobs));

  if (args.flag("stream"))
    return run_sweep_stream(args, exec::SweepGrid(system, base, axes),
                            options);
  for (const char* flag :
       {"reorder-window", "checkpoint", "checkpoint-every", "resume",
        "abort-after-rows", "shards", "shard-id"})
    if (args.get_optional(flag))
      throw util::InvalidArgument(std::string("--") + flag +
                                  " needs --stream");

  const std::vector<exec::Scenario> scenarios =
      exec::expand_grid(system, base, axes);
  exec::SweepRunner runner(options);
  const std::vector<exec::ModelSummary> results =
      runner.run_models(scenarios);

  util::TextTable table({"scenario", "wall", "attainable", "binding ceiling",
                         "slot latency", "campaign makespan"});
  for (std::size_t column = 1; column <= 2; ++column)
    table.set_align(column, util::Align::kRight);
  std::string ndjson;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const exec::Scenario& scenario = scenarios[i];
    const exec::ModelSummary& r = results[i];
    table.add_row({scenario.label, util::format("%d", r.parallelism_wall),
                   util::format("%.3g tasks/s", r.attainable_tps_at_wall),
                   r.binding_label,
                   r.slot_seconds > 0.0
                       ? util::format_seconds(r.slot_seconds)
                       : "-",
                   util::format_seconds(r.campaign_makespan_seconds)});
    exec::append_result_line(ndjson, scenario.label, scenario.params,
                             r.parallelism_wall, r.attainable_tps_at_wall,
                             r.binding_label, r.binding_channel,
                             r.slot_seconds, r.campaign_makespan_seconds);
    ndjson += '\n';
  }
  std::cout << util::format("sweep of '%s' on '%s': %zu points\n\n",
                            base.name.c_str(), system.name.c_str(),
                            results.size());
  std::cout << table.str() << "\n";
  std::cout << ndjson;
  if (auto path = args.get_optional("ndjson")) {
    util::write_file(*path, ndjson);
    std::cout << "wrote " << *path << "\n";
  }

  if (auto path = args.get_optional("metrics"))
    write_sweep_metrics(*path, results.size());

  if (auto svg = args.get_optional("svg")) {
    // Multi-curve roofline: the first scenario's full model carries the
    // axes; every other scenario contributes its binding ceiling as an
    // extra labeled curve, and each point lands as a projected dot at its
    // parallelism wall.  Full models are built only for this overlay.
    const auto model_of = [&scenarios](std::size_t i) {
      return core::build_model(scenarios[i].system, scenarios[i].workflow);
    };
    core::RooflineModel model = model_of(0);
    for (std::size_t i = 1; i < scenarios.size(); ++i) {
      core::Ceiling ceiling = model_of(i).binding_ceiling(
          static_cast<double>(results[i].parallelism_wall));
      ceiling.label = scenarios[i].label + ": " + ceiling.label;
      model.add_ceiling(std::move(ceiling));
    }
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      core::Dot dot;
      dot.label = scenarios[i].label;
      dot.parallel_tasks = static_cast<double>(results[i].parallelism_wall);
      dot.tps = results[i].attainable_tps_at_wall;
      dot.style = "projected";
      model.add_dot(std::move(dot));
    }
    plot::write_roofline_svg(model, *svg);
    std::cout << "wrote " << *svg << "\n";
  }
  return 0;
}

// wfr merge — re-interleave the NDJSON parts of an N-way sharded sweep
// (from `wfr sweep --stream --shards N --shard-id I --ndjson <part>` or
// from N `wfr serve` backends, one "shard" each) in global row order
// (exec::merge_shard_outputs) and print the merged stream on stdout,
// byte-identical to one unsharded --stream.  --rows is the whole grid's
// point count, the T of the sharded summary line "sweep shard I/N of
// ...: R of T points", not the sum of the parts' rows: a part that lost
// its final line must fail even when that line held the grid's last row.
// Parts go in shard order, 0 to N-1: parts of equal length given out of
// order merge into wrong bytes unnoticed, and a shell glob sorts shard10
// before shard2.  A part that cannot be opened, is short a row, lost its
// final newline or holds rows past its shard's last exits 1 naming the
// part; the rows merged before the bad one stay printed, as a failing
// sweep's rows do.
int cmd_merge(const Args& args) {
  const std::uint64_t rows = parse_u64_flag("rows", args.get("rows"));
  exec::merge_shard_outputs(args.positional, static_cast<std::size_t>(rows),
                            std::cout);
  std::cout.flush();
  if (!std::cout)
    throw util::Error("writing the merged stream to standard output failed");
  return 0;
}

// wfr serve — the roofline-as-a-service daemon (docs/SERVER.md): an
// event-driven (epoll reactor) HTTP/1.1 JSON server that answers model
// and sweep queries, renders SVGs, and exposes Prometheus metrics.
// SIGINT/SIGTERM drain in-flight requests before the process exits 0.
int cmd_serve(const Args& args) {
  serve::ServerOptions options;
  if (auto host = args.get_optional("host")) options.host = *host;
  if (auto port = args.get_optional("port"))
    options.port = static_cast<int>(parse_long_flag_in("port", *port, 0, 65535));
  if (auto jobs = args.get_optional("jobs"))
    options.jobs = static_cast<int>(parse_long_flag_in("jobs", *jobs, 1, 1 << 16));
  if (auto io = args.get_optional("io-threads"))
    options.io_threads =
        static_cast<int>(parse_long_flag_in("io-threads", *io, 1, 64));
  if (auto idle = args.get_optional("idle-timeout"))
    options.idle_timeout_ms = static_cast<int>(
        parse_long_flag_in("idle-timeout", *idle, 0, 1 << 30));
  if (auto queue = args.get_optional("max-queue"))
    options.max_queue =
        static_cast<int>(parse_long_flag_in("max-queue", *queue, 1, 1 << 20));
  if (auto body = args.get_optional("max-body"))
    options.max_body_bytes =
        static_cast<std::size_t>(parse_u64_flag("max-body", *body));

  serve::AppOptions app_options;
  if (auto jobs = args.get_optional("sweep-jobs"))
    app_options.sweep_jobs =
        static_cast<int>(parse_long_flag_in("sweep-jobs", *jobs, 1, 1 << 16));
  std::string trace_out;
  if (auto out = args.get_optional("trace-out")) trace_out = *out;
  if (auto cap = args.get_optional("trace-cap"))
    app_options.trace_capacity =
        static_cast<std::size_t>(parse_long_flag_in("trace-cap", *cap, 1,
                                                    1 << 24));
  if (args.flag("no-trace")) app_options.trace_enabled = false;

  serve::App app(app_options);
  serve::Server server(options);
  app.bind(server);
  const int port = server.start();
  server.install_signal_handlers();
  // Flush before blocking so supervisors (and the serve-smoke CI job) can
  // wait for readiness on this line.
  std::cout << "wfr serve: listening on http://" << options.host << ":"
            << port << " (" << server.jobs() << " workers, "
            << server.io_threads() << " io threads, max queue "
            << options.max_queue << ")" << std::endl;
  server.serve_forever();
  const auto& stats = server.stats();
  std::cout << "wfr serve: drained; served " << stats.requests.load()
            << " requests on " << stats.accepted.load() << " connections ("
            << stats.shed.load() << " shed)" << std::endl;
  std::cout << "wfr serve: " << app.drain_summary() << std::endl;
  if (!trace_out.empty()) {
    app.write_trace(trace_out);
    std::cout << "wfr serve: trace written to " << trace_out << std::endl;
  }
  return 0;
}

// wfr import — convert WfCommons/WfBench workflow instances (wfformat
// >= 1.4 specification/execution layout or the legacy <= 1.3 inline
// layout) to our workflow description JSON (docs/SERVER.md has the HTTP
// equivalent).
// One input prints its converted workflow; several inputs merge into one
// union workflow (task names prefixed with their instance name so ids
// stay unique) unless --out-dir writes one converted file per input.
// Conversion fans across the thread pool; output is byte-identical at
// any --jobs count.  The per-instance summary goes to stderr so stdout
// stays pipeable into --workflow -.
int cmd_import(const Args& args) {
  const std::vector<std::string>& inputs = args.positional;
  if (inputs.empty())
    throw util::InvalidArgument(
        "import needs at least one WfCommons instance file (or - for stdin)");

  int jobs = 0;
  if (auto flag = args.get_optional("jobs"))
    jobs = static_cast<int>(parse_long_flag_in("jobs", *flag, 1, 1 << 16));

  // Read serially (stdin only works once), convert in parallel.
  std::vector<std::string> texts;
  texts.reserve(inputs.size());
  for (const std::string& input : inputs)
    texts.push_back(read_workflow_text(input));

  exec::ThreadPool pool(jobs);
  const std::vector<workflows::WfInstance> instances =
      exec::parallel_map<workflows::WfInstance>(
          pool, texts.size(),
          [&texts](std::size_t i) {
            return workflows::import_wfcommons(texts[i]);
          });

  for (std::size_t i = 0; i < instances.size(); ++i) {
    const workflows::WfInstance& inst = instances[i];
    std::cerr << util::format(
        "wfr import: %s: %zu tasks, %zu files, %s layout%s\n",
        inst.graph.name().c_str(), inst.graph.task_count(), inst.file_count,
        inst.legacy ? "legacy" : "specification",
        inst.schema_version.empty()
            ? ""
            : (" (schema " + inst.schema_version + ")").c_str());
  }

  if (auto dir = args.get_optional("out-dir")) {
    std::filesystem::create_directories(*dir);
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const std::string stem =
          inputs[i] == "-" ? util::format("stdin-%zu", i)
                           : std::filesystem::path(inputs[i]).stem().string();
      const std::string path =
          (std::filesystem::path(*dir) / (stem + ".json")).string();
      util::write_file(path,
                       dag::save_workflow_text(instances[i].graph) + "\n");
      std::cout << "wrote " << path << "\n";
    }
    return 0;
  }

  if (instances.size() == 1) {
    std::cout << dag::save_workflow_text(instances[0].graph) << "\n";
    return 0;
  }

  // Merge into one union workflow so a glob of instances still pipes into
  // a single run/sweep.
  dag::WorkflowGraph merged("imported");
  for (const workflows::WfInstance& inst : instances) {
    const auto base = static_cast<dag::TaskId>(merged.task_count());
    const auto count = static_cast<dag::TaskId>(inst.graph.task_count());
    for (dag::TaskId id = 0; id < count; ++id) {
      dag::TaskSpec spec = inst.graph.task(id);
      spec.name = inst.graph.name() + "/" + spec.name;
      merged.add_task(std::move(spec));
    }
    for (dag::TaskId id = 0; id < count; ++id)
      for (dag::TaskId pred : inst.graph.predecessors(id))
        merged.add_dependency(base + pred, base + id);
  }
  merged.validate();
  std::cout << dag::save_workflow_text(merged) << "\n";
  return 0;
}

// wfr check — the differential validation harness (docs/TESTING.md):
// seed-generate scenarios, feed each through both the analytical roofline
// and the simulator, and print a deterministic pass/divergence table.
// The rectangular generator engineers provably tight predictions and
// asserts throughput/wall/binding/classification agreement; --gen
// irregular draws fan-out/fan-in/diamond/multi-phase/straggler topologies
// with heterogeneous volumes, asserts the roofline stays an upper bound,
// and reports the prediction gap per topology class against documented
// ceilings.  Divergences exit 1 and dump replayable repro JSON files;
// --replay re-runs one recorded scenario.  Output is byte-identical at
// any --jobs count.
int cmd_check(const Args& args) {
  check::CheckOptions options;
  if (auto seeds = args.get_optional("seeds"))
    options.seeds = static_cast<std::size_t>(
        parse_long_flag_in("seeds", *seeds, 1, 1 << 20));
  if (auto tolerance = args.get_optional("tolerance"))
    options.tolerance = parse_double_flag("tolerance", *tolerance);
  if (auto jobs = args.get_optional("jobs"))
    options.jobs = static_cast<int>(parse_long_flag_in("jobs", *jobs, 1, 1 << 16));
  if (auto seed = args.get_optional("base-seed"))
    options.base_seed = parse_u64_flag("base-seed", *seed);
  if (auto gen = args.get_optional("gen"))
    options.mode = check::parse_gen_mode(*gen);

  if (auto path = args.get_optional("replay")) {
    const util::Json repro = util::Json::parse(read_file(*path));
    // Unless overridden, judge the replay at the tolerance the repro was
    // recorded with.
    if (!args.get_optional("tolerance"))
      options.tolerance = check::repro_tolerance(repro);
    const check::DifferentialRunner runner(options);
    const check::CaseResult result = runner.replay(repro);
    std::cout << runner.repro_json(result).pretty() << "\n";
    std::cout << (result.passed() ? "replay: PASS\n"
                                  : "replay: DIVERGENCE\n");
    return result.passed() ? 0 : 1;
  }

  const check::DifferentialRunner runner(options);
  const check::CheckReport report = runner.run();
  std::cout << report.table();
  if (!report.all_passed()) {
    const std::string dir = args.get_optional("repro-dir").value_or(".");
    for (const std::string& path :
         check::write_repro_files(runner, report, dir))
      std::cout << "wrote " << path << "\n";
  }
  return report.all_passed() ? 0 : 1;
}

// wfr compare — two characterizations of the same workflow, before and
// after an optimization: speedup, dot direction, bound shift, headroom.
int cmd_compare(const Args& args) {
  const core::SystemSpec system = load_system(args.get("system"));
  auto load = [&](const std::string& option) {
    return core::build_model(
        system, core::WorkflowCharacterization::from_json(
                    util::Json::parse(read_file(args.get(option)))));
  };
  const core::RooflineModel before = load("before");
  const core::RooflineModel after = load("after");
  std::cout << core::compare_models(before, after).to_string();
  return 0;
}

// wfr archetype — generate a workflow description for a NERSC-10-style
// archetype and print it as JSON (pipe to a file to feed
// analyze/simulate).
int cmd_archetype(const Args& args) {
  const std::string kind = args.get("kind");
  const int size = static_cast<int>(
      args.get_optional("size") ? parse_long_flag("size", *args.get_optional("size"))
                                : 8);
  archetypes::ArchetypeParams params;
  if (auto scale = args.get_optional("scale"))
    params.scale = parse_double_flag("scale", *scale);
  if (auto nodes = args.get_optional("nodes"))
    params.nodes_per_task = static_cast<int>(parse_long_flag("nodes", *nodes));

  dag::WorkflowGraph graph;
  if (kind == "ensemble") {
    graph = archetypes::ensemble(size, params);
  } else if (kind == "pipeline") {
    graph = archetypes::pipeline(size, params);
  } else if (kind == "fork-join") {
    graph = archetypes::fork_join(size, params);
  } else if (kind == "map-reduce") {
    graph = archetypes::map_reduce(size, /*iterations=*/3, params);
  } else if (kind == "sim-insitu") {
    graph = archetypes::simulation_insitu(size, params);
  } else if (kind == "random") {
    archetypes::RandomDagParams rnd;
    rnd.tasks = size;
    rnd.base = params;
    if (auto seed = args.get_optional("seed"))
      rnd.seed = parse_u64_flag("seed", *seed);
    graph = archetypes::random_dag(rnd);
  } else {
    throw util::InvalidArgument("unknown archetype kind '" + kind + "'");
  }
  // random_dag draws 1 to 8 nodes per task, and no other generator is
  // seeded: an option the kind does not read fails before any output.
  const char* unread = kind == "random" ? "nodes" : "seed";
  if (args.flag(unread))
    throw util::InvalidArgument(std::string("unknown option --") + unread +
                                " for wfr archetype --kind " + kind);
  std::cout << dag::save_workflow_text(graph) << "\n";
  return 0;
}

// wfr presets — list the built-in system presets.
int cmd_presets(const Args& /*args*/) {
  for (const core::SystemPreset& preset : core::kSystemPresets) {
    const core::SystemSpec s = preset.make();
    std::cout << util::format(
        "%-16s %5d nodes  %s/node  fs %s  external %s\n", s.name.c_str(),
        s.total_nodes, util::format_flops_rate(s.node.peak_flops).c_str(),
        util::format_rate(s.fs_gbs).c_str(),
        util::format_rate(s.external_gbs).c_str());
  }
  return 0;
}

/// Appends `line` and then `words` to `out`: the first word at `column`,
/// the others one space apart, breaking before column 80 onto lines that
/// start at `column`.
void append_wrapped(std::string& out, std::string line, std::size_t column,
                    const std::vector<std::string>& words) {
  for (const std::string& word : words) {
    if (line.size() > column && line.size() + 1 + word.size() >= 80) {
      (out += line) += '\n';
      line.clear();
    }
    line.resize(std::max(line.size() + 1, column), ' ');
    line += word;
  }
  (out += line) += '\n';
}

/// Appends "<head> a, b, c" to `out`, wrapped as append_wrapped does.
void append_list(std::string& out, const std::string& head,
                 std::vector<std::string> names) {
  for (std::size_t i = 0; i + 1 < names.size(); ++i) names[i] += ',';
  append_wrapped(out, head, head.size() + 1, names);
}

/// `wfr help`, from the command table: each command's required options
/// bare, then its positional arguments, then its optional options in
/// brackets.
void print_usage(const std::vector<Command>& commands) {
  std::size_t width = 0;
  for (const Command& command : commands)
    width = std::max(width, command.name.size());
  std::string usage = "wfr — Workflow Roofline analysis\n\nusage:\n";
  for (const Command& command : commands) {
    std::vector<std::string> words, optional;
    std::string either;
    for (const Option& option : command.options) {
      std::string word = "--" + std::string(option.name);
      if (!option.value.empty()) (word += ' ') += option.value;
      if (option.use == Use::kRequired) words.push_back(word);
      if (option.use == Use::kEither)
        either += (either.empty() ? "(" : " | ") + word;
      if (option.use == Use::kOptional) optional.push_back("[" + word + "]");
      if (option.use == Use::kRepeated)
        optional.push_back("[" + word + "]...");
    }
    if (!either.empty()) words.push_back(either + ")");
    if (!command.positional.empty()) words.emplace_back(command.positional);
    words.insert(words.end(), optional.begin(), optional.end());
    append_wrapped(usage, "  wfr " + std::string(command.name), 7 + width,
                   words);
  }
  usage += '\n';
  std::vector<std::string> presets;
  for (const core::SystemPreset& preset : core::kSystemPresets)
    presets.emplace_back(preset.name);
  append_list(usage, "presets:", presets);
  append_list(usage, "sweep axes:",
              {std::begin(exec::kSweepAxes), std::end(exec::kSweepAxes)});
  usage +=
      "--workflow accepts - for stdin (e.g. wfr import ... | wfr run\n"
      "  --workflow -); wfr import reads - as stdin too\n"
      "archetype: --seed is read by --kind random only, --nodes by every\n"
      "  other kind\n"
      "jobs resolution: --jobs > WFR_JOBS > hardware concurrency\n";
  std::cout << usage;
}

}  // namespace

int main(int argc, char** argv) {
  using enum Use;
  const Option system{"system", "<spec|preset>", kRequired};
  const Option workflow{"workflow", "<wf.json>", kRequired};
  const std::vector<Command> commands = {
      {"analyze", cmd_analyze,
       {system, workflow, {"target", "<seconds>"}, {"svg", "<out.svg>"},
        {"ascii"}, {"node-roofline", "<out.svg>"}}},
      {"model", cmd_model,
       {system, {"characterization", "<c.json>", kRequired},
        {"svg", "<out.svg>"}, {"ascii"}}},
      {"simulate", cmd_simulate,
       {system, workflow, {"gantt", "<out.svg>"}, {"json", "<trace.json>"}}},
      {"run", cmd_run,
       {system, workflow, {"chrome-trace", "<out.json>"},
        {"metrics", "<out.json>"}, {"svg", "<out.svg>"},
        {"gantt", "<out.svg>"}}},
      {"sweep", cmd_sweep,
       {system, {"characterization", "<c.json>", kEither},
        {"workflow", "<wf.json>", kEither},
        {"param", "name=v1,v2,...", kRepeated}, {"jobs", "<n>"},
        {"target", "<seconds>"}, {"ndjson", "<out>"}, {"svg", "<out.svg>"},
        {"metrics", "<out.json>"}, {"stream"}, {"reorder-window", "<n>"},
        {"checkpoint", "<ckpt.json>"}, {"checkpoint-every", "<rows>"},
        {"resume", "<ckpt.json>"}, {"shards", "<n>"}, {"shard-id", "<i>"},
        {"abort-after-rows", "<rows>", kHidden}}},
      {"merge", cmd_merge, {{"rows", "<n>", kRequired}},
       "<part0> ... <partN-1>"},
      {"serve", cmd_serve,
       {{"port", "<n>"}, {"host", "<addr>"}, {"jobs", "<n>"},
        {"io-threads", "<n>"}, {"idle-timeout", "<ms>"},
        {"max-queue", "<n>"}, {"max-body", "<bytes>"},
        {"sweep-jobs", "<n>"}, {"trace-out", "<trace.json>"},
        {"trace-cap", "<spans>"}, {"no-trace"}}},
      {"import", cmd_import, {{"jobs", "<n>"}, {"out-dir", "<dir>"}},
       "<instance.json>..."},
      {"check", cmd_check,
       {{"seeds", "<n>"}, {"tolerance", "<x>"}, {"jobs", "<n>"},
        {"base-seed", "<n>"}, {"gen", "rectangular|irregular"},
        {"repro-dir", "<dir>"}, {"replay", "<repro.json>"}}},
      {"compare", cmd_compare,
       {system, {"before", "<c.json>", kRequired},
        {"after", "<c.json>", kRequired}}},
      {"archetype", cmd_archetype,
       {{"kind", "ensemble|pipeline|fork-join|map-reduce|sim-insitu|random",
         kRequired},
        {"size", "<n>"}, {"scale", "<x>"}, {"nodes", "<n>"}, {"seed", "<n>"}}},
      {"presets", cmd_presets, {}},
  };
  try {
    const std::string_view name = argc < 2 ? "" : argv[1];
    for (const Command& command : commands)
      if (name == command.name)
        return command.run(parse_args(command, argc, argv));
    print_usage(commands);
    return name == "help" ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "wfr: " << e.what() << "\n";
    return 1;
  }
}

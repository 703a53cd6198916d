#include "check/differential.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>

#include "core/characterization.hpp"
#include "exec/thread_pool.hpp"
#include "sim/runner.hpp"
#include "util/error.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace wfr::check {

DifferentialRunner::DifferentialRunner(CheckOptions options)
    : options_(std::move(options)) {
  util::require(options_.seeds >= 1, "check needs at least one seed");
  util::require(options_.tolerance >= 0.0, "tolerance must be >= 0");
}

namespace {

ScenarioId scenario_id(const GenScenario& s) {
  return {s.base_seed, s.case_seed, s.index, s.mode, s.topology, s.regime};
}

}  // namespace

// Both generator modes run one pipeline: graph, characterization, model,
// wall, operating point, simulation, makespan, error and gap.  They part
// at four points.  Rectangular scenarios are engineered to be tight, so
// the run asserts agreement: the engineered binding channel, the exact
// peak concurrency, the two-sided tolerance and the bound class.  On an
// irregular DAG the roofline is only an upper bound (path argument for
// diagonal ceilings, capacity argument for horizontal ones — see
// scenario_gen.hpp), so the run asserts the bound plus the per-class gap
// ceiling instead.
CaseResult DifferentialRunner::run_case(const GenScenario& scenario) const {
  const bool irregular = scenario.mode == GenMode::kIrregular;
  CaseResult r;
  r.scenario = scenario_id(scenario);
  auto fail = [&r](std::string message) {
    r.failures.push_back(std::move(message));
  };

  const dag::WorkflowGraph graph = scenario.build_graph();
  const core::WorkflowCharacterization characterization =
      core::characterize_graph(graph);
  if (characterization.parallel_tasks != scenario.width) {
    fail(util::format("characterized parallel_tasks %d != generated %s %d",
                      characterization.parallel_tasks,
                      irregular ? "max level width" : "width",
                      scenario.width));
  }

  // Analytical side: Eq. 1 evaluated at the scenario's operating point.
  const core::RooflineModel model =
      core::build_model(scenario.system, characterization);
  r.model_wall = model.parallelism_wall();
  if (r.model_wall != scenario.expected_wall) {
    fail(util::format("parallelism wall mismatch: model %d, expected "
                      "floor(%d / %d) = %d",
                      r.model_wall, scenario.system.total_nodes,
                      scenario.nodes_per_task, scenario.expected_wall));
  }
  // Irregular construction keeps width <= wall, so there the operating
  // point is the DAG's parallel width and the upper-bound argument
  // applies.
  const double operating_p = std::min(
      static_cast<double>(characterization.parallel_tasks),
      static_cast<double>(r.model_wall));
  r.predicted_tps = model.attainable_tps(operating_p);
  r.binding_channel =
      core::channel_name(model.binding_ceiling(operating_p).channel);
  if (!irregular) {
    const char* expected_channel =
        core::channel_name(regime_channel(scenario.regime));
    if (r.binding_channel != expected_channel) {
      fail(util::format("binding channel mismatch: model '%s', generator "
                        "engineered '%s' to bind",
                        r.binding_channel.c_str(), expected_channel));
    }
  }

  // Simulated side: full discrete-event execution, default options
  // (no jitter, no failures) so the run is deterministic.
  const trace::WorkflowTrace trace =
      sim::run_workflow(graph, scenario.system.to_machine());
  const double makespan = trace.makespan_seconds();
  if (!(makespan > 0.0)) {
    fail("simulated makespan is not positive");
    return r;
  }
  r.simulated_tps = static_cast<double>(scenario.total_tasks()) / makespan;
  r.sim_peak_parallel = trace.peak_concurrency();
  if (irregular) {
    if (r.sim_peak_parallel < 1 ||
        r.sim_peak_parallel > scenario.expected_wall) {
      fail(util::format("peak concurrency %d outside [1, wall %d]",
                        r.sim_peak_parallel, scenario.expected_wall));
    }
  } else if (r.sim_peak_parallel != scenario.width) {
    fail(util::format("peak concurrency mismatch: simulator %d, DAG width %d",
                      r.sim_peak_parallel, scenario.width));
  }

  r.relative_error =
      std::fabs(r.simulated_tps - r.predicted_tps) / r.predicted_tps;
  r.gap = std::max(0.0, 1.0 - r.simulated_tps / r.predicted_tps);

  core::Dot dot;
  dot.label = "simulated";
  dot.parallel_tasks = operating_p;
  dot.tps = r.simulated_tps;
  r.predicted_bound = core::bound_class_name(model.classify(dot));

  if (irregular) {
    if (!(r.simulated_tps <=
          r.predicted_tps * (1.0 + options_.tolerance))) {
      fail(util::format(
          "roofline violated: simulated %s tps exceeds predicted upper "
          "bound %s tps (by more than tolerance %s)",
          util::format_double(r.simulated_tps).c_str(),
          util::format_double(r.predicted_tps).c_str(),
          util::format_double(options_.tolerance).c_str()));
    }
    const double ceiling = topology_gap_ceiling(scenario.topology);
    if (!(r.gap <= ceiling)) {
      fail(util::format(
          "gap ceiling exceeded: class %s gap %s > documented ceiling %s "
          "(predicted %s tps, simulated %s tps)",
          topology_name(scenario.topology),
          util::format_double(r.gap).c_str(),
          util::format_double(ceiling).c_str(),
          util::format_double(r.predicted_tps).c_str(),
          util::format_double(r.simulated_tps).c_str()));
    }
    r.expected_bound = r.predicted_bound;  // no engineered class to pin
    return r;
  }

  if (!(r.relative_error <= options_.tolerance)) {
    fail(util::format(
        "throughput divergence: predicted %s tps, simulated %s tps "
        "(relative error %s > tolerance %s)",
        util::format_double(r.predicted_tps).c_str(),
        util::format_double(r.simulated_tps).c_str(),
        util::format_double(r.relative_error).c_str(),
        util::format_double(options_.tolerance).c_str()));
  }
  r.expected_bound = core::bound_class_name(scenario.expected_bound);
  if (r.predicted_bound != r.expected_bound) {
    fail(util::format("bound classification mismatch: model '%s', "
                      "generator engineered '%s'",
                      r.predicted_bound.c_str(), r.expected_bound.c_str()));
  }
  return r;
}

CheckReport DifferentialRunner::run() const {
  CheckReport report;
  report.options = options_;
  const ScenarioGen gen(options_.base_seed, options_.mode);
  exec::ThreadPool pool(options_.jobs);
  report.results = exec::parallel_map<CaseResult>(
      pool, options_.seeds,
      [this, &gen](std::size_t i) { return run_case(gen.generate(i)); });
  for (const CaseResult& r : report.results) {
    if (!r.passed()) ++report.divergences;
  }
  return report;
}

namespace {

// Deterministic nearest-rank percentile over an already-sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto pos = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[pos];
}

// Irregular-mode report: gap distribution per topology class against the
// documented ceiling.
std::string irregular_table(const CheckReport& report) {
  const auto& results = report.results;
  std::string out;
  out += util::format(
      "differential check: %zu scenarios, base seed %llu, tolerance %s, "
      "generator irregular (v%d)\n",
      results.size(),
      static_cast<unsigned long long>(report.options.base_seed),
      util::format_double(report.options.tolerance).c_str(),
      ScenarioGen::kGenVersion);

  struct ClassRow {
    std::size_t cases = 0;
    std::size_t diverged = 0;
    std::vector<double> gaps;
  };
  ClassRow rows[kTopologyCount];
  ClassRow total;
  for (const CaseResult& r : results) {
    ClassRow& row = rows[static_cast<int>(r.scenario.topology)];
    for (ClassRow* target : {&row, &total}) {
      ++target->cases;
      if (!r.passed()) ++target->diverged;
      target->gaps.push_back(r.gap);
    }
  }

  auto line = [&out](std::string_view cls, std::string_view cases,
                     std::string_view diverged, std::string_view mean,
                     std::string_view p50, std::string_view p90,
                     std::string_view max, std::string_view ceiling) {
    out += util::pad_right(cls, 12);
    out += util::pad_left(cases, 7);
    out += util::pad_left(diverged, 10);
    out += util::pad_left(mean, 10);
    out += util::pad_left(p50, 9);
    out += util::pad_left(p90, 9);
    out += util::pad_left(max, 9);
    out += util::pad_left(ceiling, 9);
    out += '\n';
  };
  line("class", "cases", "diverged", "gap-mean", "gap-p50", "gap-p90",
       "gap-max", "ceiling");
  auto emit = [&line](std::string_view name, ClassRow& row,
                      std::string_view ceiling) {
    if (row.cases == 0) {
      line(name, "0", "0", "-", "-", "-", "-", ceiling);
      return;
    }
    std::sort(row.gaps.begin(), row.gaps.end());
    double sum = 0.0;
    for (double g : row.gaps) sum += g;
    line(name, util::format("%zu", row.cases),
         util::format("%zu", row.diverged),
         util::format("%.3f", sum / static_cast<double>(row.cases)),
         util::format("%.3f", percentile(row.gaps, 0.5)),
         util::format("%.3f", percentile(row.gaps, 0.9)),
         util::format("%.3f", row.gaps.back()), ceiling);
  };
  // Skip the rectangular class: the irregular generator never draws it.
  for (int i = 1; i < kTopologyCount; ++i) {
    const auto topology = static_cast<Topology>(i);
    emit(topology_name(topology), rows[i],
         util::format("%.3f", topology_gap_ceiling(topology)));
  }
  emit("total", total, "-");

  for (const CaseResult& r : results) {
    if (r.passed()) continue;
    out += util::format(
        "DIVERGENCE index %zu (seed %llu, class %s, regime %s): %s\n",
        r.scenario.index,
        static_cast<unsigned long long>(r.scenario.case_seed),
        topology_name(r.scenario.topology), regime_name(r.scenario.regime),
        util::join(r.failures, "; ").c_str());
  }
  out += util::format("wfr check: %zu passed, %zu diverged\n",
                      results.size() - report.divergences, report.divergences);
  return out;
}

}  // namespace

std::string CheckReport::table() const {
  if (options.mode == GenMode::kIrregular) return irregular_table(*this);
  std::string out;
  out += util::format(
      "differential check: %zu scenarios, base seed %llu, tolerance %s\n",
      results.size(), static_cast<unsigned long long>(options.base_seed),
      util::format_double(options.tolerance).c_str());

  struct RegimeRow {
    std::size_t cases = 0;
    std::size_t diverged = 0;
    double max_rel_err = 0.0;
  };
  RegimeRow rows[kRegimeCount];
  RegimeRow total;
  for (const CaseResult& r : results) {
    RegimeRow& row = rows[static_cast<int>(r.scenario.regime)];
    for (RegimeRow* target : {&row, &total}) {
      ++target->cases;
      if (!r.passed()) ++target->diverged;
      target->max_rel_err = std::max(target->max_rel_err, r.relative_error);
    }
  }

  auto line = [&out](std::string_view regime, std::string_view cases,
                     std::string_view diverged, std::string_view err) {
    out += util::pad_right(regime, 12);
    out += util::pad_left(cases, 7);
    out += util::pad_left(diverged, 10);
    out += util::pad_left(err, 14);
    out += '\n';
  };
  line("regime", "cases", "diverged", "max-rel-err");
  auto emit = [&line](std::string_view name, const RegimeRow& row) {
    line(name, util::format("%zu", row.cases),
         util::format("%zu", row.diverged),
         row.cases == 0 ? "-" : util::format("%.3e", row.max_rel_err));
  };
  for (int i = 0; i < kRegimeCount; ++i)
    emit(regime_name(static_cast<Regime>(i)), rows[i]);
  emit("total", total);

  for (const CaseResult& r : results) {
    if (r.passed()) continue;
    out += util::format(
        "DIVERGENCE index %zu (seed %llu, regime %s): %s\n", r.scenario.index,
        static_cast<unsigned long long>(r.scenario.case_seed),
        regime_name(r.scenario.regime),
        util::join(r.failures, "; ").c_str());
  }
  out += util::format("wfr check: %zu passed, %zu diverged\n",
                      results.size() - divergences, divergences);
  return out;
}

util::Json DifferentialRunner::repro_json(const CaseResult& result) const {
  util::JsonObject o;
  o.set("wfr_check_repro", util::Json(1));
  o.set("gen", util::Json(std::string(gen_mode_name(result.scenario.mode))));
  o.set("base_seed",
        util::Json(util::format("%llu", static_cast<unsigned long long>(
                                            result.scenario.base_seed))));
  o.set("index", util::Json(static_cast<std::int64_t>(result.scenario.index)));
  o.set("tolerance", util::Json(options_.tolerance));
  o.set("scenario", ScenarioGen(result.scenario.base_seed,
                                result.scenario.mode)
                        .generate(result.scenario.index)
                        .to_json());
  o.set("predicted_tps", util::Json(result.predicted_tps));
  o.set("simulated_tps", util::Json(result.simulated_tps));
  o.set("relative_error", util::Json(result.relative_error));
  o.set("model_wall", util::Json(result.model_wall));
  o.set("sim_peak_parallel", util::Json(result.sim_peak_parallel));
  o.set("gap", util::Json(result.gap));
  o.set("binding_channel", util::Json(result.binding_channel));
  o.set("predicted_bound", util::Json(result.predicted_bound));
  o.set("expected_bound", util::Json(result.expected_bound));
  util::JsonArray failures;
  for (const std::string& f : result.failures)
    failures.push_back(util::Json(f));
  o.set("failures", util::Json(std::move(failures)));
  return util::Json(std::move(o));
}

namespace {

/// A repro seed: a decimal string (the form to_json writes, exact for any
/// uint64) or a non-negative JSON integer.
std::uint64_t seed_from_json(const util::Json& value, const char* field) {
  if (!value.is_string())
    return static_cast<std::uint64_t>(value.as_int_in(
        0, std::numeric_limits<std::int64_t>::max(), field));
  const std::string& text = value.as_string();
  std::uint64_t seed = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, seed);
  if (text.empty() || error != std::errc() || stop != end)
    throw util::ParseError(util::format(
        "%s must be a decimal uint64, got '%s'", field, text.c_str()));
  return seed;
}

}  // namespace

double repro_tolerance(const util::Json& repro) {
  return repro.number_or("tolerance", 0.02);
}

CaseResult DifferentialRunner::replay(const util::Json& repro) const {
  util::require(repro.as_object().contains("wfr_check_repro"),
                "not a wfr check repro document (missing wfr_check_repro)");
  const std::uint64_t base_seed =
      seed_from_json(repro.at("base_seed"), "base_seed");
  const auto index = static_cast<std::size_t>(repro.at("index").as_int_in(
      0, std::numeric_limits<std::int64_t>::max(), "index"));
  const GenMode mode = parse_gen_mode(repro.string_or("gen", "rectangular"));
  const ScenarioGen gen(base_seed, mode);
  const GenScenario scenario = gen.generate(index);
  CaseResult result = run_case(scenario);
  // A repro file is only faithful while the generator's draw sequence is
  // unchanged; detect drift by comparing the regenerated scenario with the
  // recorded one (and flag a version mismatch explicitly, so a stale file
  // names the reason instead of just a byte diff).
  if (const util::Json* recorded = repro.as_object().find("scenario")) {
    const util::Json* version = recorded->as_object().find("gen_version");
    const int recorded_version =
        version == nullptr
            ? 0
            : static_cast<int>(version->as_int_in(
                  std::numeric_limits<int>::min(),
                  std::numeric_limits<int>::max(), "scenario.gen_version"));
    if (recorded_version != ScenarioGen::kGenVersion) {
      result.failures.push_back(util::format(
          "generator version drift: repro was recorded by gen_version %d "
          "but this binary generates v%d; this repro file is stale",
          recorded_version, ScenarioGen::kGenVersion));
    } else if (!(scenario.to_json() == *recorded)) {
      result.failures.push_back(
          "generator drift: the regenerated scenario no longer matches the "
          "recorded one (draw sequence changed without a gen_version "
          "bump?); this repro file is stale");
    }
  }
  return result;
}

std::vector<std::string> write_repro_files(const DifferentialRunner& runner,
                                           const CheckReport& report,
                                           const std::string& directory) {
  std::vector<std::string> paths;
  std::filesystem::create_directories(directory);
  for (const CaseResult& r : report.results) {
    if (r.passed()) continue;
    const std::string path =
        (std::filesystem::path(directory) /
         util::format("check-repro-%zu.json", r.scenario.index))
            .string();
    util::write_file(path, runner.repro_json(r).pretty() + "\n");
    paths.push_back(path);
  }
  return paths;
}

}  // namespace wfr::check

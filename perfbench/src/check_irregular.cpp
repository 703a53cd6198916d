// check_irregular: the nightly differential lane.  check::DifferentialRunner
// in GenMode::kIrregular runs a fixed count of seeded scenarios at nproc
// jobs, repeatedly; every pass must report 0 divergences and the same
// report table.
//
// Traced run: each scenario's pipeline is replayed serially through the
// public functions run_case calls (ScenarioGen::generate,
// GenScenario::build_graph, characterize_graph + build_model,
// sim::run_workflow_detailed), each call timed here; the engine's own
// event and flow counts come from RunOptions::observe.  What a 1-job
// runner spends per scenario beyond those calls is the named residual
// check.residual_ns.

#include <cstdint>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "check/scenario_gen.hpp"
#include "common.hpp"
#include "core/characterization.hpp"
#include "core/model.hpp"
#include "obs/observation.hpp"
#include "sim/runner.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

using namespace wfr;

/// Scenarios per pass: the nightly differential lane's count.
constexpr std::size_t kScenarios = 2000;
/// Scenarios the set-up checks.
constexpr std::size_t kSetupScenarios = 64;

check::CheckOptions options(std::uint64_t base_seed, std::size_t seeds,
                            int jobs) {
  check::CheckOptions o;
  o.seeds = seeds;
  o.base_seed = base_seed;
  o.jobs = jobs;
  o.mode = check::GenMode::kIrregular;
  return o;
}

struct Replay {
  double seconds = 0.0;
  LayerTimes generate, build_graph, characterize, simulate;
};

template <bool kTimed>
Replay replay(std::uint64_t base_seed) {
  Replay out;
  const check::ScenarioGen gen(base_seed, check::GenMode::kIrregular);
  const std::uint64_t begin = now_ns();
  for (std::size_t i = 0; i < kScenarios; ++i) {
    const std::uint64_t t0 = kTimed ? now_ns() : 0;
    const check::GenScenario scenario = gen.generate(i);
    const std::uint64_t t1 = kTimed ? now_ns() : 0;
    const dag::WorkflowGraph graph = scenario.build_graph();
    const std::uint64_t t2 = kTimed ? now_ns() : 0;
    const core::RooflineModel model =
        core::build_model(scenario.system, core::characterize_graph(graph));
    const std::uint64_t t3 = kTimed ? now_ns() : 0;
    const sim::RunResult run =
        sim::run_workflow_detailed(graph, scenario.system.to_machine());
    if constexpr (kTimed) {
      const std::uint64_t t4 = now_ns();
      out.generate.add(t1 - t0);
      out.build_graph.add(t2 - t1);
      out.characterize.add(t3 - t2);
      out.simulate.add(t4 - t3);
    }
    util::require(model.parallelism_wall() > 0 &&
                      run.trace.makespan_seconds() > 0.0,
                  "replayed scenario produced no result");
  }
  out.seconds = seconds_since(begin);
  return out;
}

/// Engine events and flows per scenario, from the engine's self-metrics.
std::pair<double, double> engine_counts(std::uint64_t base_seed) {
  const check::ScenarioGen gen(base_seed, check::GenMode::kIrregular);
  double events = 0.0;
  double flows = 0.0;
  for (std::size_t i = 0; i < kScenarios; ++i) {
    const check::GenScenario scenario = gen.generate(i);
    obs::Observation observe;
    observe.sample_resources = false;
    sim::RunOptions run_options;
    run_options.observe = &observe;
    sim::run_workflow_detailed(scenario.build_graph(),
                               scenario.system.to_machine(), run_options);
    const auto count = [&observe](const char* name) {
      const obs::Counter* counter = observe.registry.find_counter(name);
      return counter != nullptr ? counter->value() : 0.0;
    };
    events += count("engine.events_processed");
    flows += count("engine.flows_started");
  }
  return {events / kScenarios, flows / kScenarios};
}

}  // namespace

void run_check_irregular(const Args& args, Result& result) {
  const std::uint64_t base_seed =
      Rng(args.seed ^ 0x636865636b2d6972ULL).next();
  const int jobs = nproc();

  // Set-up checks the default lane's first kSetupScenarios scenarios, the
  // same ones for every --seed, so set-up time does not depend on which
  // scenarios the seed happens to draw first.
  std::vector<double> setup;
  for (int i = 0; i < 25; ++i) {
    const std::uint64_t begin = now_ns();
    const check::DifferentialRunner first(
        options(check::kDefaultBaseSeed, kSetupScenarios, jobs));
    first.run();
    setup.push_back(seconds_since(begin));
  }
  result.metrics["setup_s"] = summarize(setup, "s");

  std::string reference;
  const auto pass = [&](int pass_jobs) {
    const check::DifferentialRunner runner(
        options(base_seed, kScenarios, pass_jobs));
    const std::uint64_t begin = now_ns();
    const check::CheckReport report = runner.run();
    const double seconds = seconds_since(begin);
    result.attempted += report.results.size();
    if (report.divergences > 0)
      result.fail(util::format("%zu divergences", report.divergences),
                  report.divergences);
    const std::string table = report.table();
    if (reference.empty()) reference = table;
    if (table != reference)
      result.fail(util::format("report at %d jobs differs", pass_jobs),
                  report.results.size());
    return seconds;
  };

  const std::uint64_t begin = now_ns();
  const auto more = [&](std::size_t done) {
    return done == 0 || seconds_since(begin) < args.seconds;
  };

  if (!args.trace) {
    std::vector<double> tput;
    while (more(tput.size())) tput.push_back(kScenarios / pass(jobs));
    result.metrics["throughput"] = summarize(tput, "1/s");
    return;
  }

  const double timer_ns = timer_overhead_ns();
  std::vector<double> item, untraced, traced, generate, build_graph,
      characterize, simulate;
  while (more(item.size())) {
    item.push_back(pass(1) * 1e9 / kScenarios);
    // Alternate which replay runs first, so warm-up favours neither.
    const bool untimed_first = item.size() % 2 == 1;
    const auto untimed = [&] {
      untraced.push_back(kScenarios / replay<false>(base_seed).seconds);
    };
    if (untimed_first) untimed();
    const Replay timed = replay<true>(base_seed);
    if (!untimed_first) untimed();
    traced.push_back(kScenarios / timed.seconds);
    generate.push_back(timed.generate.mean_net(timer_ns));
    build_graph.push_back(timed.build_graph.mean_net(timer_ns));
    characterize.push_back(timed.characterize.mean_net(timer_ns));
    simulate.push_back(timed.simulate.mean_net(timer_ns));
  }

  auto& layers = result.layers;
  layers["check.generate_ns"] = summarize(generate, "ns");
  layers["dag.build_graph_ns"] = summarize(build_graph, "ns");
  layers["core.characterize_model_ns"] = summarize(characterize, "ns");
  layers["sim.run_workflow_ns"] = summarize(simulate, "ns");
  layers["bench.item_ns"] = summarize(item, "ns");
  close_ledger(result, "check_irregular",
               {"check.generate_ns", "dag.build_graph_ns",
                "core.characterize_model_ns", "sim.run_workflow_ns"},
               "check.residual_ns");
  const auto [events, flows] = engine_counts(base_seed);
  layers["sim.events"] = single(events, "count", kScenarios);
  layers["sim.flows"] = single(flows, "count", kScenarios);
  layers["sim.ns_per_event"] =
      single(events > 0 ? layers["sim.run_workflow_ns"].value / events : 0.0,
             "ns", kScenarios);
  layers["bench.trace_overhead_ratio"] =
      single(median(traced) / median(untraced), "ratio", traced.size());
}

}  // namespace perfbench

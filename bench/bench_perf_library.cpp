// Library microbenchmarks (google-benchmark): costs of the core
// operations a user pays — model construction and evaluation, simulator
// event processing, scheduling, GP surrogate fits, and figure rendering.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analytical/bgw_model.hpp"
#include "autotune/gp.hpp"
#include "check/scenario_gen.hpp"
#include "common.hpp"
#include "core/model.hpp"
#include "exec/sweep.hpp"
#include "math/rng.hpp"
#include "obs/observation.hpp"
#include "plot/roofline_plot.hpp"
#include "sim/engine.hpp"
#include "sim/runner.hpp"
#include "util/json.hpp"

namespace {

using namespace wfr;

core::WorkflowCharacterization bgw64() {
  return analytical::bgw_characterization(analytical::BgwParams{}, 64);
}

void BM_BuildModel(benchmark::State& state) {
  const core::SystemSpec system = core::SystemSpec::perlmutter_gpu();
  const core::WorkflowCharacterization c = bgw64();
  for (auto _ : state) {
    core::RooflineModel model = core::build_model(system, c);
    benchmark::DoNotOptimize(model.parallelism_wall());
  }
}
BENCHMARK(BM_BuildModel);

// Every ceiling's label for one model that demands all nine channels: the
// presentation half of build_model, priced apart from the ceiling math.
// items/sec = labels/sec.
void BM_CeilingLabel(benchmark::State& state) {
  const core::SystemSpec system = core::SystemSpec::perlmutter_gpu();
  core::WorkflowCharacterization c = bgw64();
  c.dram_bytes_per_node = 32e9;
  c.hbm_bytes_per_node = 70e9;
  c.pcie_bytes_per_node = 45e6;
  c.overhead_seconds_per_task = 0.02;
  c.external_bytes_per_task = 5e12 / 6.0;
  std::vector<core::CeilingSpec> specs;
  core::compute_ceilings(system, c, specs);
  for (auto _ : state) {
    for (const core::CeilingSpec& spec : specs)
      benchmark::DoNotOptimize(core::ceiling_label(spec, system, c));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(specs.size()));
}
BENCHMARK(BM_CeilingLabel);

void BM_AttainableThroughput(benchmark::State& state) {
  const core::RooflineModel model =
      core::build_model(core::SystemSpec::perlmutter_gpu(), bgw64());
  double p = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.attainable_tps(p));
    p = p >= 28.0 ? 1.0 : p + 1.0;
  }
}
BENCHMARK(BM_AttainableThroughput);

// Engine event-loop throughput: a chain of sequential timed events, the
// dominant operation in long simulations.  items/sec = events/sec; the
// payload slab keeps storage at one slot regardless of chain length.
void BM_EngineEventThroughput(benchmark::State& state) {
  const int chain = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    int remaining = chain;
    std::function<void()> tick = [&] {
      if (--remaining > 0) simulator.schedule_after(1.0, tick);
    };
    simulator.schedule_after(0.0, tick);
    simulator.run();
    benchmark::DoNotOptimize(simulator.now());
  }
  state.SetItemsProcessed(state.iterations() * chain);
}
BENCHMARK(BM_EngineEventThroughput)->Arg(1024)->Arg(16384);

// Fair-share completion throughput at fixed concurrency: N flows with
// distinct volumes drain one at a time, so every completion re-derives
// the schedule.  items/sec = flow completions/sec.
void BM_EngineConcurrentFlows(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    const sim::ResourceId fs = simulator.add_resource("fs", 1e12);
    for (int i = 0; i < flows; ++i)
      simulator.start_flow(fs, 1e9 * (i + 1), [] {});
    simulator.run();
    benchmark::DoNotOptimize(simulator.now());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_EngineConcurrentFlows)->Arg(10)->Arg(100)->Arg(1000);

// The same drain with the observability layer attached: a ResourceProbe
// sampling every fair-share interval plus a post-run metric export.
// Compare against BM_EngineConcurrentFlows at the same arg to measure
// probe overhead (kept under 5% at 1000 flows).
void BM_EngineConcurrentFlowsObserved(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  // The probe and registry live across a process, not per run; reusing
  // them here (reset() keeps sample storage) measures the steady-state
  // recording cost, not construction churn.
  obs::MetricsRegistry registry;
  obs::ResourceProbe probe;
  for (auto _ : state) {
    probe.reset();
    sim::Simulator simulator;
    simulator.attach_probe(&probe);
    const sim::ResourceId fs = simulator.add_resource("fs", 1e12);
    for (int i = 0; i < flows; ++i)
      simulator.start_flow(fs, 1e9 * (i + 1), [] {});
    simulator.run();
    simulator.export_metrics(registry);
    benchmark::DoNotOptimize(simulator.now());
    benchmark::DoNotOptimize(probe.series().size());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_EngineConcurrentFlowsObserved)->Arg(10)->Arg(100)->Arg(1000);

// Cancellation cost: N live flows cancelled one by one (the facility
// co-scheduling scenario tears down background load this way).
void BM_EngineCancelFlows(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  std::vector<sim::FlowId> ids;
  for (auto _ : state) {
    sim::Simulator simulator;
    const sim::ResourceId fs = simulator.add_resource("fs", 1e12);
    ids.clear();
    for (int i = 0; i < flows; ++i)
      ids.push_back(simulator.start_flow(fs, 1e12, [] {}));
    for (const sim::FlowId id : ids) simulator.cancel_flow(id);
    simulator.run();
    benchmark::DoNotOptimize(simulator.now());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_EngineCancelFlows)->Arg(10)->Arg(100)->Arg(1000);

void BM_SimulatorFairShareFlows(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    const sim::ResourceId fs = simulator.add_resource("fs", 1e12);
    for (int i = 0; i < flows; ++i)
      simulator.start_flow(fs, 1e9 * (i + 1), [] {});
    simulator.run();
    benchmark::DoNotOptimize(simulator.now());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_SimulatorFairShareFlows)->Arg(16)->Arg(64)->Arg(256);

void BM_RunLclsShapedWorkflow(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  dag::TaskSpec analysis;
  analysis.name = "a";
  analysis.nodes = 4;
  analysis.demand.external_in_bytes = 1e12;
  analysis.demand.flops_per_node = 1e13;
  dag::TaskSpec merge;
  merge.name = "m";
  merge.demand.fs_read_bytes = 1e9;
  const dag::WorkflowGraph g =
      dag::make_fork_join("w", analysis, width, merge);
  const sim::MachineConfig machine = sim::perlmutter_cpu();
  for (auto _ : state) {
    const trace::WorkflowTrace t = sim::run_workflow(g, machine);
    benchmark::DoNotOptimize(t.makespan_seconds());
  }
  state.SetItemsProcessed(state.iterations() * (width + 1));
}
BENCHMARK(BM_RunLclsShapedWorkflow)->Arg(8)->Arg(64)->Arg(256);

// The simulator layer of `wfr check --gen irregular`: sim::run_workflow
// over the prebuilt graphs of the first 256 default-lane irregular
// scenarios (about 16 tasks and 15 flows each).  items/sec = scenarios/sec.
void BM_RunIrregularScenarios(benchmark::State& state) {
  const check::ScenarioGen gen(check::kDefaultBaseSeed,
                               check::GenMode::kIrregular);
  std::vector<dag::WorkflowGraph> graphs;
  std::vector<sim::MachineConfig> machines;
  for (std::size_t i = 0; i < 256; ++i) {
    const check::GenScenario scenario = gen.generate(i);
    graphs.push_back(scenario.build_graph());
    machines.push_back(scenario.system.to_machine());
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const trace::WorkflowTrace t = sim::run_workflow(graphs[i], machines[i]);
      benchmark::DoNotOptimize(t.makespan_seconds());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graphs.size()));
}
BENCHMARK(BM_RunIrregularScenarios);

void BM_GpFitPredict(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  math::Rng rng(3);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < n; ++i) {
    xs.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    ys.push_back(rng.uniform());
  }
  const std::vector<double> probe{0.5, 0.5, 0.5};
  for (auto _ : state) {
    autotune::GaussianProcess gp;
    gp.fit(xs, ys);
    benchmark::DoNotOptimize(gp.predict(probe).mean);
  }
}
BENCHMARK(BM_GpFitPredict)->Arg(20)->Arg(40)->Arg(80);

void BM_RenderRooflineSvg(benchmark::State& state) {
  const core::RooflineModel model =
      core::build_model(core::SystemSpec::perlmutter_gpu(), bgw64());
  for (auto _ : state) {
    const std::string svg = plot::render_roofline(model);
    benchmark::DoNotOptimize(svg.size());
  }
}
BENCHMARK(BM_RenderRooflineSvg);

// Sweep scaling: the 64-point capacity-planning grid (8 efficiencies x
// 8 intra-task-parallelism factors) fanned across 1/2/4/8 jobs with a
// simulation-backed evaluator, so each point carries real work and the
// arg sweep measures parallel sweep throughput.  items/sec = grid
// points/sec; compare Arg(8) vs Arg(1) for the speedup (the recorded
// baseline bench/baselines/BENCH_sweep.json also stamps
// sweep/hardware_jobs — on a 1-core builder the args just measure pool
// overhead).
void BM_SweepScaling(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  core::SystemSpec system = core::SystemSpec::perlmutter_gpu();
  core::WorkflowCharacterization base = bgw64();
  base.nodes_per_task = 8;  // factors below must yield whole node counts
  const std::vector<exec::ParamAxis> axes{
      {"efficiency", {1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3}},
      {"nodes_per_task", {0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 8.0}}};
  const std::vector<exec::Scenario> grid =
      exec::expand_grid(system, base, axes);

  // The simulation each point pays for: a fork-join shaped like the
  // capacity-planning study, scaled by the point's node count.
  auto eval = [](const exec::Scenario& point) {
    dag::TaskSpec member;
    member.name = "member";
    member.nodes = point.workflow.nodes_per_task;
    member.demand.flops_per_node = 1e13;
    member.demand.fs_read_bytes = 1e10;
    dag::TaskSpec merge;
    merge.name = "merge";
    merge.demand.fs_read_bytes = 1e9;
    const dag::WorkflowGraph g = dag::make_fork_join("cap", member, 16, merge);
    const trace::WorkflowTrace t =
        sim::run_workflow(g, sim::perlmutter_cpu());
    benchmark::DoNotOptimize(t.makespan_seconds());
    return core::build_model(point.system, point.workflow).parallelism_wall();
  };

  exec::ThreadPool pool(jobs);
  for (auto _ : state) {
    const std::vector<int> results = exec::parallel_map<int>(
        pool, grid.size(),
        [&grid, &eval](std::size_t i) { return eval(grid[i]); });
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(grid.size()));
}
BENCHMARK(BM_SweepScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_JsonParseWorkflow(benchmark::State& state) {
  std::string text = R"({"name":"w","tasks":[)";
  for (int i = 0; i < 64; ++i) {
    if (i) text += ',';
    text += R"({"name":"t)" + std::to_string(i) +
            R"(","nodes":4,"demand":{"fs_read":"1 GB","flops_per_node":"1 TFLOP"}})";
  }
  text += "]}";
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Json::parse(text).dump().size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_JsonParseWorkflow);

// Console output plus one NDJSON result line per run (schema in
// bench/README.md), so CI and scripts can scrape timings without parsing
// the human table.
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  using ConsoleReporter::ConsoleReporter;

  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      const std::string unit =
          std::string(benchmark::GetTimeUnitString(run.time_unit)) + "/op";
      wfr::bench::emit_result_line(name + "/real_time",
                                   run.GetAdjustedRealTime(), unit);
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        wfr::bench::emit_result_line(name + "/items_per_second",
                                     items->second.value, "items/s");
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  wfr::bench::bench_id() = "PERF";
  // Stamp the builder's core count so BENCH_sweep.json baselines are
  // interpretable: BM_SweepScaling cannot beat hardware_jobs.
  wfr::bench::emit_result_line("sweep/hardware_jobs",
                               wfr::exec::hardware_jobs(), "jobs");
  JsonLineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

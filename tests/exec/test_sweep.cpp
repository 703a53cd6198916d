// Tests for SweepRunner: grid expansion, memoization (hit/miss counts and
// metrics export), and the bit-for-bit determinism of sweep results and
// their NDJSON serialization across job counts.

#include "exec/sweep.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/registry.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace wfr::exec {
namespace {

core::SystemSpec test_system() {
  core::SystemSpec system;
  system.name = "sweep-test-system";
  system.total_nodes = 128;
  system.node.peak_flops = 10.0 * util::kTFLOPS;
  system.node.dram_gbs = 200.0 * util::kGBs;
  system.node.nic_gbs = 25.0 * util::kGBs;
  system.fs_gbs = 500.0 * util::kGBs;
  system.external_gbs = 5.0 * util::kGBs;
  return system;
}

core::WorkflowCharacterization test_workflow() {
  core::WorkflowCharacterization wf;
  wf.name = "sweep-test-workflow";
  wf.total_tasks = 56;
  wf.parallel_tasks = 28;
  wf.nodes_per_task = 2;  // factor 0.5 must still give whole nodes
  wf.flops_per_node = 4.4e15;
  wf.dram_bytes_per_node = 2.0e13;
  wf.network_bytes_per_task = 1.0e11;
  wf.fs_bytes_per_task = 2.5e11;
  return wf;
}

TEST(ScenarioKeyTest, LabelIsNotPartOfTheKey) {
  Scenario a;
  a.system = test_system();
  a.workflow = test_workflow();
  Scenario b = a;
  b.label = "something else";
  b.params = {{"x", 1.0}};  // presentation-only, like the label
  EXPECT_EQ(scenario_key(a), scenario_key(b));

  Scenario c = a;
  c.seed = 7;
  EXPECT_NE(scenario_key(a), scenario_key(c));
  Scenario d = a;
  d.workflow.total_tasks += 1;
  EXPECT_NE(scenario_key(a), scenario_key(d));
}

TEST(ExpandGridTest, RowMajorCrossProduct) {
  const std::vector<Scenario> grid =
      expand_grid(test_system(), test_workflow(),
                  {{"efficiency", {1.0, 0.8}},
                   {"nodes_per_task", {1.0, 2.0, 4.0}}});
  ASSERT_EQ(grid.size(), 6u);
  // First axis slowest: efficiency=1 covers the first three points.
  EXPECT_EQ(grid[0].label, "efficiency=1 nodes_per_task=1");
  EXPECT_EQ(grid[1].label, "efficiency=1 nodes_per_task=2");
  EXPECT_EQ(grid[3].label, "efficiency=0.8 nodes_per_task=1");
  ASSERT_EQ(grid[4].params.size(), 2u);
  EXPECT_EQ(grid[4].params[0].first, "efficiency");
  EXPECT_DOUBLE_EQ(grid[4].params[1].second, 2.0);
  // nodes_per_task=2 doubles the per-task node count (base is 2).
  EXPECT_EQ(grid[1].workflow.nodes_per_task, 4);
}

TEST(ExpandGridTest, AbsoluteAxesOverrideSystemAndWorkflow) {
  const std::vector<Scenario> grid =
      expand_grid(test_system(), test_workflow(),
                  {{"total_nodes", {64.0}},
                   {"fs_gbs", {100.0 * util::kGBs}},
                   {"total_tasks", {7.0}}});
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid[0].system.total_nodes, 64);
  EXPECT_DOUBLE_EQ(grid[0].system.fs_gbs, 100.0 * util::kGBs);
  EXPECT_EQ(grid[0].workflow.total_tasks, 7);
}

TEST(ExpandGridTest, RejectsUnknownAxisAndEmptyAxis) {
  EXPECT_THROW(expand_grid(test_system(), test_workflow(),
                           {{"warp_factor", {9.0}}}),
               util::InvalidArgument);
  EXPECT_THROW(
      expand_grid(test_system(), test_workflow(), {{"efficiency", {}}}),
      util::InvalidArgument);
}

TEST(SweepRunnerTest, RunModelsIsJobCountInvariant) {
  const std::vector<Scenario> grid =
      expand_grid(test_system(), test_workflow(),
                  {{"efficiency", {1.0, 0.8}},
                   {"nodes_per_task", {0.5, 1.0, 2.0, 4.0, 8.0}}});
  auto sweep = [&grid](int jobs) {
    SweepRunner runner({jobs});
    std::vector<std::string> lines;
    for (const ScenarioResult& r : runner.run_models(grid))
      lines.push_back(scenario_result_line(r));
    return lines;
  };
  const std::vector<std::string> serial = sweep(1);
  ASSERT_EQ(serial.size(), grid.size());
  // NDJSON bytes — not just values — must match across job counts.
  EXPECT_EQ(serial, sweep(2));
  EXPECT_EQ(serial, sweep(8));
}

TEST(SweepRunnerTest, ResultsCarryLabelsAndDerivedQuantities) {
  const std::vector<Scenario> grid =
      expand_grid(test_system(), test_workflow(), {{"efficiency", {1.0}}});
  SweepRunner runner({2});
  const std::vector<ScenarioResult> results = runner.run_models(grid);
  ASSERT_EQ(results.size(), 1u);
  const ScenarioResult& r = results[0];
  EXPECT_EQ(r.label, "efficiency=1");
  EXPECT_EQ(r.scenario.label, r.label);
  ASSERT_NE(r.model, nullptr);
  EXPECT_GE(r.parallelism_wall, 1);
  EXPECT_GT(r.attainable_tps_at_wall, 0.0);
  EXPECT_FALSE(r.binding_label.empty());
  EXPECT_NEAR(r.campaign_makespan_seconds,
              r.scenario.workflow.total_tasks / r.attainable_tps_at_wall,
              1e-9);
}

TEST(SweepRunnerTest, CacheDeduplicatesIdenticalScenarios) {
  Scenario point;
  point.label = "a";
  point.system = test_system();
  point.workflow = test_workflow();
  Scenario again = point;
  again.label = "b";  // label excluded from the key -> cache hit
  Scenario distinct = point;
  distinct.workflow.parallel_tasks = 14;

  std::atomic<int> evaluations{0};
  SweepRunner runner({4});
  const std::vector<int> out = runner.run<int>(
      {point, again, distinct, point},
      [&evaluations](const Scenario& s) {
        evaluations.fetch_add(1);
        return s.workflow.parallel_tasks;
      });
  EXPECT_EQ(out, (std::vector<int>{28, 28, 14, 28}));
  EXPECT_EQ(evaluations.load(), 2);
  EXPECT_EQ(runner.stats().scenarios, 4u);
  EXPECT_EQ(runner.stats().cache_misses, 2u);
  EXPECT_EQ(runner.stats().cache_hits, 2u);
}

TEST(SweepRunnerTest, CachePersistsAcrossRuns) {
  Scenario point;
  point.system = test_system();
  point.workflow = test_workflow();
  SweepRunner runner({1});
  std::atomic<int> evaluations{0};
  auto eval = [&evaluations](const Scenario&) {
    evaluations.fetch_add(1);
    return 1;
  };
  runner.run<int>({point}, eval);
  runner.run<int>({point}, eval);
  EXPECT_EQ(evaluations.load(), 1);
  EXPECT_EQ(runner.stats().cache_hits, 1u);
}

TEST(SweepRunnerTest, ExportMetricsFillsTheRegistry) {
  const std::vector<Scenario> grid =
      expand_grid(test_system(), test_workflow(),
                  {{"efficiency", {1.0, 1.0}}});  // duplicate -> one hit
  SweepRunner runner({2});
  runner.run_models(grid);
  obs::MetricsRegistry registry;
  runner.export_metrics(registry);
  ASSERT_NE(registry.find_counter("sweep.scenarios"), nullptr);
  EXPECT_DOUBLE_EQ(registry.find_counter("sweep.scenarios")->value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.find_counter("sweep.cache_hits")->value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.find_counter("sweep.cache_misses")->value(), 1.0);
}

TEST(SweepRunnerTest, EvaluatorExceptionReachesEveryWaiter) {
  Scenario point;
  point.system = test_system();
  point.workflow = test_workflow();
  SweepRunner runner({2});
  auto boom = [](const Scenario&) -> int {
    throw std::runtime_error("evaluator failed");
  };
  EXPECT_THROW(runner.run<int>({point, point}, boom), std::runtime_error);
  // The failure is cached too: a later hit on the same key replays it.
  EXPECT_THROW(runner.run<int>({point}, boom), std::runtime_error);
}

TEST(ScenarioHashTest, LabelAndParamsAreNotPartOfTheHash) {
  Scenario a;
  a.system = test_system();
  a.workflow = test_workflow();
  Scenario b = a;
  b.label = "something else";
  b.params = {{"x", 1.0}};
  EXPECT_EQ(scenario_hash(a), scenario_hash(b));

  Scenario c = a;
  c.seed = 7;
  EXPECT_NE(scenario_hash(a), scenario_hash(c));
  Scenario d = a;
  d.workflow.total_tasks += 1;
  EXPECT_NE(scenario_hash(a), scenario_hash(d));
  Scenario e = a;
  e.system.node.nic_gbs *= 2.0;
  EXPECT_NE(scenario_hash(a), scenario_hash(e));
}

TEST(ScenarioHashTest, AgreesWithScenarioKeyEquality) {
  // The digest and the human-readable key define the same identity.
  const std::vector<Scenario> grid =
      expand_grid(test_system(), test_workflow(),
                  {{"efficiency", {1.0, 0.8}},
                   {"nodes_per_task", {1.0, 2.0}}});
  for (const Scenario& x : grid)
    for (const Scenario& y : grid)
      EXPECT_EQ(scenario_key(x) == scenario_key(y),
                scenario_hash(x) == scenario_hash(y));
}

TEST(SweepGridTest, LazyAtMatchesExpandGrid) {
  const std::vector<ParamAxis> axes = {{"efficiency", {1.0, 0.8}},
                                       {"nodes_per_task", {1.0, 2.0, 4.0}}};
  const SweepGrid grid(test_system(), test_workflow(), axes);
  const std::vector<Scenario> expanded =
      expand_grid(test_system(), test_workflow(), axes);
  ASSERT_EQ(grid.size(), expanded.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Scenario lazy = grid.at(i);
    EXPECT_EQ(lazy.label, expanded[i].label);
    EXPECT_EQ(lazy.params, expanded[i].params);
    EXPECT_EQ(scenario_hash(lazy), scenario_hash(expanded[i]));
  }
  EXPECT_THROW(grid.at(grid.size()), util::InvalidArgument);
}

TEST(SweepGridTest, LabelValuesArePrintfG) {
  // Labels print each axis value as printf's "%g" would.
  std::vector<double> values = {0.0, -0.0, 1.0, 0.8, 0.5, 2.5e-7, 1e6,
                                123456.5, 1234567.0, 1e-5, 9.9999995e5,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::denorm_min()};
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    double value = 0.0;
    const std::uint64_t bits = rng();
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) values.push_back(value);
    values.push_back(static_cast<double>(rng() % 100000) / 1000.0);
  }
  const SweepGrid grid(test_system(), test_workflow(), {{"fs_gbs", values}});
  char expected[32];
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::snprintf(expected, sizeof(expected), "%g", values[i]);
    EXPECT_EQ(grid.at(i).label, std::string("fs_gbs=") + expected);
  }
}

TEST(SweepGridTest, RejectsDuplicateAxis) {
  EXPECT_THROW(SweepGrid(test_system(), test_workflow(),
                         {{"efficiency", {1.0}}, {"efficiency", {0.8}}}),
               util::InvalidArgument);
  // The axis in between does not hide the repeat.
  EXPECT_THROW(SweepGrid(test_system(), test_workflow(),
                         {{"fs_gbs", {1.0 * util::kGBs}},
                          {"efficiency", {1.0}},
                          {"fs_gbs", {2.0 * util::kGBs}}}),
               util::InvalidArgument);
  EXPECT_THROW(expand_grid(test_system(), test_workflow(),
                           {{"efficiency", {1.0}}, {"efficiency", {0.8}}}),
               util::InvalidArgument);
}

// Property test for the lazy grid: on randomized multi-axis grids,
// at(flat) must decode the flat index row-major (first axis slowest)
// into exactly the per-axis values whose indices re-compose to `flat` —
// the round trip the sharded workers rely on when they materialize
// arbitrary rows with no neighbor context.
TEST(SweepGridTest, AtFlatRoundTripsOnRandomizedGrids) {
  // Rate axes accept any positive double, so random values are safe
  // (efficiency is excluded: it must lie in (0, 1]).
  const std::vector<std::string> axis_pool = {
      "fs_gbs", "external_gbs", "nic_gbs", "peak_flops"};
  std::mt19937 rng(20260809);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t axis_count = 1 + rng() % axis_pool.size();
    std::vector<ParamAxis> axes;
    for (std::size_t a = 0; a < axis_count; ++a) {
      ParamAxis axis{axis_pool[a], {}};
      const std::size_t values = 1 + rng() % 4;
      for (std::size_t v = 0; v < values; ++v)
        axis.values.push_back(
            0.25 + static_cast<double>(rng() % 1000) / 16.0 +
            static_cast<double>(v) * 1e6);  // distinct within the axis
      axes.push_back(std::move(axis));
    }
    const SweepGrid grid(test_system(), test_workflow(), axes);
    std::size_t expected_size = 1;
    for (const ParamAxis& axis : axes) expected_size *= axis.values.size();
    ASSERT_EQ(grid.size(), expected_size);

    for (std::size_t flat = 0; flat < grid.size(); ++flat) {
      const Scenario scenario = grid.at(flat);
      ASSERT_EQ(scenario.params.size(), axes.size());
      // Decode row-major: the first axis varies slowest.
      std::size_t stride = grid.size();
      std::size_t remainder = flat;
      std::size_t recomposed = 0;
      for (std::size_t a = 0; a < axes.size(); ++a) {
        stride /= axes[a].values.size();
        const std::size_t index = remainder / stride;
        remainder %= stride;
        EXPECT_EQ(scenario.params[a].first, axes[a].name);
        EXPECT_DOUBLE_EQ(scenario.params[a].second, axes[a].values[index])
            << "trial=" << trial << " flat=" << flat << " axis=" << a;
        recomposed = recomposed * axes[a].values.size() + index;
      }
      EXPECT_EQ(recomposed, flat);
    }
    // First and last rows pin the corners; one past the end fails loudly.
    EXPECT_DOUBLE_EQ(grid.at(0).params[0].second, axes[0].values[0]);
    EXPECT_DOUBLE_EQ(grid.at(grid.size() - 1).params[0].second,
                     axes[0].values.back());
    EXPECT_THROW(grid.at(grid.size()), util::InvalidArgument);
  }
}

TEST(SweepGridTest, GridHashDistinguishesDefinitions) {
  const SweepGrid a(test_system(), test_workflow(),
                    {{"efficiency", {1.0, 0.8}}});
  const SweepGrid same(test_system(), test_workflow(),
                       {{"efficiency", {1.0, 0.8}}});
  EXPECT_EQ(a.grid_hash(), same.grid_hash());

  const SweepGrid other_axis(test_system(), test_workflow(),
                             {{"efficiency", {1.0, 0.9}}});
  EXPECT_NE(a.grid_hash(), other_axis.grid_hash());

  core::WorkflowCharacterization wf = test_workflow();
  wf.total_tasks += 1;
  const SweepGrid other_base(test_system(), wf, {{"efficiency", {1.0, 0.8}}});
  EXPECT_NE(a.grid_hash(), other_base.grid_hash());
}

TEST(SweepRunnerTest, ExportMetricsTwiceDoesNotDoubleCount) {
  const std::vector<Scenario> grid =
      expand_grid(test_system(), test_workflow(),
                  {{"efficiency", {1.0, 1.0}}});  // duplicate -> one hit
  SweepRunner runner({2});
  runner.run_models(grid);
  obs::MetricsRegistry registry;
  runner.export_metrics(registry);
  // Second export with no new work must add nothing (delta semantics).
  runner.export_metrics(registry);
  EXPECT_DOUBLE_EQ(registry.find_counter("sweep.scenarios")->value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.find_counter("sweep.cache_hits")->value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.find_counter("sweep.cache_misses")->value(), 1.0);

  // New work exports only its delta on top of the running totals.
  runner.run_models(grid);  // both points now cached -> 2 more hits
  runner.export_metrics(registry);
  EXPECT_DOUBLE_EQ(registry.find_counter("sweep.scenarios")->value(), 4.0);
  EXPECT_DOUBLE_EQ(registry.find_counter("sweep.cache_hits")->value(), 3.0);
  EXPECT_DOUBLE_EQ(registry.find_counter("sweep.cache_misses")->value(), 1.0);
}

TEST(SweepRunnerTest, LruEvictionKeepsCapacityBounded) {
  SweepOptions options;
  options.jobs = 1;
  options.cache_capacity = 2;
  SweepRunner runner(options);
  std::atomic<int> evaluations{0};
  auto eval = [&evaluations](const Scenario& s) {
    evaluations.fetch_add(1);
    return s.workflow.total_tasks;
  };
  std::vector<Scenario> distinct;
  for (int i = 0; i < 4; ++i) {
    Scenario s;
    s.system = test_system();
    s.workflow = test_workflow();
    s.workflow.total_tasks = 100 + i;
    distinct.push_back(s);
  }
  runner.run<int>(distinct, eval);
  EXPECT_EQ(evaluations.load(), 4);
  const SweepStats stats = runner.stats();
  EXPECT_EQ(stats.cache_entries, 2u);
  EXPECT_EQ(stats.cache_evictions, 2u);

  // The two most recent keys survive; the two oldest were evicted and
  // re-evaluate on the next touch.
  runner.run<int>({distinct[2], distinct[3]}, eval);
  EXPECT_EQ(evaluations.load(), 4);
  runner.run<int>({distinct[0]}, eval);
  EXPECT_EQ(evaluations.load(), 5);
}

TEST(SweepRunnerTest, LruTouchRefreshesRecency) {
  SweepOptions options;
  options.jobs = 1;
  options.cache_capacity = 2;
  SweepRunner runner(options);
  std::atomic<int> evaluations{0};
  auto eval = [&evaluations](const Scenario& s) {
    evaluations.fetch_add(1);
    return s.workflow.total_tasks;
  };
  Scenario a, b, c;
  a.system = b.system = c.system = test_system();
  a.workflow = b.workflow = c.workflow = test_workflow();
  a.workflow.total_tasks = 101;
  b.workflow.total_tasks = 102;
  c.workflow.total_tasks = 103;
  runner.run<int>({a, b}, eval);  // cache: [b, a]
  runner.run<int>({a}, eval);     // touch a -> cache: [a, b]
  runner.run<int>({c}, eval);     // evicts b, not a
  runner.run<int>({a}, eval);     // still cached
  EXPECT_EQ(evaluations.load(), 3);
  runner.run<int>({b}, eval);  // b was evicted -> re-evaluates
  EXPECT_EQ(evaluations.load(), 4);
}

TEST(SweepRunnerTest, TinyCacheIsStillByteIdenticalAtAnyJobCount) {
  const std::vector<Scenario> grid =
      expand_grid(test_system(), test_workflow(),
                  {{"efficiency", {1.0, 0.8}},
                   {"nodes_per_task", {0.5, 1.0, 2.0, 4.0, 8.0}}});
  auto sweep = [&grid](int jobs) {
    SweepOptions options;
    options.jobs = jobs;
    options.cache_capacity = 1;  // constant thrash
    SweepRunner runner(options);
    std::string ndjson;
    for (const ScenarioResult& r : runner.run_models(grid))
      ndjson += scenario_result_line(r) + "\n";
    return ndjson;
  };
  const std::string serial = sweep(1);
  EXPECT_EQ(serial, sweep(2));
  EXPECT_EQ(serial, sweep(8));
}

TEST(SweepRunnerTest, CapacityZeroRetainsNothingAcrossRuns) {
  SweepOptions options;
  options.jobs = 1;
  options.cache_capacity = 0;
  SweepRunner runner(options);
  Scenario point;
  point.system = test_system();
  point.workflow = test_workflow();
  std::atomic<int> evaluations{0};
  auto eval = [&evaluations](const Scenario&) {
    evaluations.fetch_add(1);
    return 1;
  };
  runner.run<int>({point}, eval);
  runner.run<int>({point}, eval);
  EXPECT_EQ(evaluations.load(), 2);
  EXPECT_EQ(runner.stats().cache_entries, 0u);
  EXPECT_EQ(runner.stats().cache_evictions, 0u);
}

TEST(SweepRunnerTest, CapacityZeroStillDeduplicatesInFlightKeys) {
  SweepOptions options;
  options.jobs = 2;
  options.cache_capacity = 0;
  SweepRunner runner(options);
  Scenario point;
  point.system = test_system();
  point.workflow = test_workflow();

  // The evaluator (first claimant) blocks until the second identical
  // request has been claimed, proving the second joined the in-flight
  // shared future instead of evaluating again.
  std::atomic<int> evaluations{0};
  auto eval = [&](const Scenario&) {
    evaluations.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (runner.stats().scenarios < 2 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return 42;
  };
  const std::vector<int> out = runner.run<int>({point, point}, eval);
  EXPECT_EQ(out, (std::vector<int>{42, 42}));
  EXPECT_EQ(evaluations.load(), 1);
  EXPECT_EQ(runner.stats().cache_hits, 1u);
  EXPECT_EQ(runner.stats().cache_misses, 1u);
  EXPECT_EQ(runner.stats().cache_entries, 0u);
}

TEST(SweepRunnerTest, EvictionStatsReachTheRegistry) {
  SweepOptions options;
  options.jobs = 1;
  options.cache_capacity = 1;
  SweepRunner runner(options);
  const std::vector<Scenario> grid =
      expand_grid(test_system(), test_workflow(),
                  {{"total_tasks", {56.0, 60.0, 64.0}}});
  runner.run_models(grid);
  obs::MetricsRegistry registry;
  runner.export_metrics(registry);
  ASSERT_NE(registry.find_counter("sweep.cache_evictions"), nullptr);
  EXPECT_DOUBLE_EQ(registry.find_counter("sweep.cache_evictions")->value(),
                   2.0);
  ASSERT_NE(registry.find_gauge("sweep.cache_entries"), nullptr);
  EXPECT_DOUBLE_EQ(registry.find_gauge("sweep.cache_entries")->value(), 1.0);
}

// Concurrency regression for the memo-cache accounting: a jobs=1 runner
// executes run() inline on each calling thread, so eight external
// threads hammer evaluate_cached / the LRU list directly.  At
// quiescence the counters must balance exactly — every request is a hit
// or a miss, every miss inserted an entry, every eviction removed one —
// and the resident set must respect the cap.
TEST(SweepRunnerTest, EightThreadLruAccountingStaysConsistent) {
  SweepOptions options;
  options.jobs = 1;
  options.cache_capacity = 16;
  SweepRunner runner(options);
  std::vector<Scenario> keys;
  for (int i = 0; i < 64; ++i) {
    Scenario s;
    s.system = test_system();
    s.workflow = test_workflow();
    s.workflow.total_tasks = 100 + i;
    keys.push_back(s);
  }
  const std::function<int(const Scenario&)> eval =
      [](const Scenario& s) { return s.workflow.total_tasks; };

  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  constexpr std::size_t kBatch = 8;
  std::atomic<int> wrong_values{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&runner, &keys, &eval, &wrong_values, t] {
      std::mt19937 rng(1000 + t);  // per-thread stream, deterministic
      for (int round = 0; round < kRounds; ++round) {
        std::vector<Scenario> batch;
        for (std::size_t k = 0; k < kBatch; ++k)
          batch.push_back(keys[rng() % keys.size()]);
        const std::vector<int> out = runner.run<int>(batch, eval);
        for (std::size_t k = 0; k < kBatch; ++k)
          if (out[k] != batch[k].workflow.total_tasks)
            wrong_values.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(wrong_values.load(), 0);
  const SweepStats stats = runner.stats();
  EXPECT_EQ(stats.scenarios,
            static_cast<std::uint64_t>(kThreads) * kRounds * kBatch);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.scenarios);
  EXPECT_LE(stats.cache_entries, 16u);
  EXPECT_EQ(stats.cache_misses - stats.cache_evictions, stats.cache_entries);
  // 64 distinct keys against a 16-entry cap must have evicted.
  EXPECT_GT(stats.cache_evictions, 0u);
}

TEST(ScenarioResultLineTest, StableFieldOrderWithParams) {
  const std::vector<Scenario> grid = expand_grid(
      test_system(), test_workflow(), {{"nodes_per_task", {2.0}}});
  SweepRunner runner({1});
  const std::vector<ScenarioResult> results = runner.run_models(grid);
  const std::string line = scenario_result_line(results[0]);
  EXPECT_EQ(line.find("{\"sweep\":\"nodes_per_task=2\""), 0u);
  EXPECT_NE(line.find("\"params\":{\"nodes_per_task\":2}"),
            std::string::npos);
  EXPECT_NE(line.find("\"wall\":"), std::string::npos);
  EXPECT_NE(line.find("\"campaign_makespan_s\":"), std::string::npos);
}

}  // namespace
}  // namespace wfr::exec

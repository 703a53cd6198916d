// Tests for SweepRunner: grid expansion, the bit-for-bit determinism of
// sweep results and their NDJSON serialization across job counts, and
// the row-naming errors both sweep paths share.

#include "exec/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace wfr::exec {
namespace {

// The scenario at row `flat` of `grid`.
Scenario row_at(const SweepGrid& grid, std::size_t flat) {
  Scenario scenario;
  grid.at_into(flat, scenario);
  return scenario;
}

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
    const std::vector<ModelSummary> results = runner.run_models(grid);
    std::vector<std::string> lines(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ModelSummary& r = results[i];
      append_result_line(lines[i], grid[i].label, grid[i].params,
                         r.parallelism_wall, r.attainable_tps_at_wall,
                         r.binding_label, r.binding_channel, r.slot_seconds,
                         r.campaign_makespan_seconds);
    }
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
  const std::vector<ModelSummary> results = runner.run_models(grid);
  ASSERT_EQ(results.size(), 1u);
  const ModelSummary& r = results[0];
  EXPECT_EQ(grid[0].label, "efficiency=1");
  EXPECT_GE(r.parallelism_wall, 1);
  EXPECT_GT(r.attainable_tps_at_wall, 0.0);
  EXPECT_FALSE(r.binding_label.empty());
  EXPECT_NEAR(r.campaign_makespan_seconds,
              grid[0].workflow.total_tasks / r.attainable_tps_at_wall, 1e-9);
}

// Both sweep paths report a failing row the same way: the batch path
// (expand_grid for rows that fail to build, run_models for rows that fail
// to evaluate) and stream_lines print the same "sweep row N (...)" line.
TEST(SweepRunnerTest, RowErrorsNameTheRowOnBothPaths) {
  const auto stream_error = [](const SweepGrid& grid) {
    SweepRunner runner({2});
    try {
      runner.stream_lines(grid, {}, [](std::size_t, std::string_view) {});
    } catch (const util::InvalidArgument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };

  // Fails to build: a non-integral integer axis.
  const std::vector<ParamAxis> bad_count = {{"efficiency", {1.0, 0.8}},
                                            {"total_tasks", {56.0, 2.5}}};
  std::string batch;
  try {
    expand_grid(test_system(), test_workflow(), bad_count);
  } catch (const util::InvalidArgument& e) {
    batch = e.what();
  }
  EXPECT_EQ(batch,
            "sweep row 1 (efficiency=1 total_tasks=2.5): sweep axis "
            "'total_tasks' needs positive integers, got 2.5");
  EXPECT_EQ(batch,
            stream_error(SweepGrid(test_system(), test_workflow(), bad_count)));

  // Fails to evaluate: a file-system rate so small the seconds per task
  // overflow.
  const std::vector<ParamAxis> tiny_fs = {{"fs_gbs", {1e9, 1e-300, 2e9}}};
  SweepRunner runner({2});
  batch.clear();
  try {
    runner.run_models(expand_grid(test_system(), test_workflow(), tiny_fs));
  } catch (const util::InvalidArgument& e) {
    batch = e.what();
  }
  EXPECT_EQ(batch.rfind("sweep row 1 (fs_gbs=1e-300): workflow "
                        "'sweep-test-workflow' needs inf s per task of "
                        "filesystem on system 'sweep-test-system'",
                        0),
            0u)
      << batch;
  EXPECT_EQ(batch,
            stream_error(SweepGrid(test_system(), test_workflow(), tiny_fs)));
}

TEST(SweepGridTest, LazyAtMatchesExpandGrid) {
  const std::vector<ParamAxis> axes = {{"efficiency", {1.0, 0.8}},
                                       {"nodes_per_task", {1.0, 2.0, 4.0}}};
  const SweepGrid grid(test_system(), test_workflow(), axes);
  const std::vector<Scenario> expanded =
      expand_grid(test_system(), test_workflow(), axes);
  ASSERT_EQ(grid.size(), expanded.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Scenario lazy = row_at(grid, i);
    EXPECT_EQ(lazy.label, expanded[i].label);
    EXPECT_EQ(lazy.params, expanded[i].params);
    EXPECT_EQ(lazy.system.to_json(), expanded[i].system.to_json());
    EXPECT_EQ(lazy.workflow.to_json(), expanded[i].workflow.to_json());
  }
  EXPECT_THROW(row_at(grid, grid.size()), util::InvalidArgument);
}

TEST(SweepGridTest, LabelValuesArePrintfG) {
  // Labels print each axis value as printf's "%g" would, "name=value" per
  // axis joined by single spaces, for every known axis.
  const auto printf_g = [](const std::string& name, double value) {
    char text[64];
    std::snprintf(text, sizeof(text), "%s=%g", name.c_str(), value);
    return std::string(text);
  };
  std::vector<double> rates = {0.0, -0.0, 1.0, 0.8, 0.5, 2.5e-7, 1e6,
                               123456.5, 1234567.0, 1e-5, 9.9999995e5,
                               std::numeric_limits<double>::max(),
                               std::numeric_limits<double>::denorm_min()};
  std::vector<double> efficiencies = {1.0, 0.5, 0.95, 1e-6};
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    double value = 0.0;
    const std::uint64_t bits = rng();
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) rates.push_back(value);
    rates.push_back(static_cast<double>(rng() % 100000) / 1000.0);
    efficiencies.push_back(static_cast<double>(rng() % 1000 + 1) / 1000.0);
  }
  // The base workflow runs 2 nodes per task, so each nodes_per_task factor
  // gives whole nodes; the integer axes take positive integers.
  const std::vector<double> factors = {0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 16.0,
                                       31.5, 100.0, 1234.5};
  const std::vector<double> counts = {
      1.0, 2.0, 7.0, 28.0, 999999.0, 1e6, 1234567.0, 123456789.0,
      2147483647.0};
  const std::vector<ParamAxis> axes = {
      {"nodes_per_task", factors}, {"efficiency", efficiencies},
      {"parallel_tasks", counts},  {"total_tasks", counts},
      {"total_nodes", counts},     {"fs_gbs", rates},
      {"external_gbs", rates},     {"nic_gbs", rates},
      {"peak_flops", rates}};
  Scenario scenario;
  for (const ParamAxis& axis : axes) {
    const SweepGrid grid(test_system(), test_workflow(), {axis});
    for (std::size_t i = 0; i < grid.size(); ++i) {
      grid.at_into(i, scenario);
      EXPECT_EQ(scenario.label, printf_g(axis.name, axis.values[i]));
    }
  }

  // All nine axes at once, two values each: the label joins the row's
  // coordinates in axis order.
  std::vector<ParamAxis> nine;
  for (const ParamAxis& axis : axes)
    nine.push_back({axis.name, {axis.values[1], axis.values.back()}});
  const SweepGrid grid(test_system(), test_workflow(), nine);
  ASSERT_EQ(grid.size(), 512u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid.at_into(i, scenario);
    std::string want;
    for (std::size_t a = 0; a < nine.size(); ++a) {
      const double value = nine[a].values[(i >> (8 - a)) & 1];
      if (a != 0) want += ' ';
      want += printf_g(nine[a].name, value);
      EXPECT_EQ(scenario.params[a].first, nine[a].name);
      EXPECT_EQ(scenario.params[a].second, value);
    }
    EXPECT_EQ(scenario.label, want);
  }

  // No axes: the label is the base workflow's name, also in a scenario
  // reused from a nine-axis row.
  const SweepGrid single(test_system(), test_workflow(), {});
  grid.at_into(0, scenario);
  single.at_into(0, scenario);
  EXPECT_EQ(scenario.label, "sweep-test-workflow");
  EXPECT_TRUE(scenario.params.empty());

  // A non-integral integer axis fails its row, whose error still names the
  // coordinates, and the rows after it label as before.
  const std::vector<ParamAxis> bad = {{"fs_gbs", {1e12}},
                                      {"parallel_tasks", {4.0, 2.5, 8.0}}};
  const SweepGrid with_bad_row(test_system(), test_workflow(), bad);
  EXPECT_THROW(with_bad_row.at_into(1, scenario), util::InvalidArgument);
  with_bad_row.at_into(2, scenario);
  EXPECT_EQ(scenario.label, "fs_gbs=1e+12 parallel_tasks=8");
  try {
    expand_grid(test_system(), test_workflow(), bad);
    ADD_FAILURE() << "expand_grid accepted parallel_tasks=2.5";
  } catch (const util::InvalidArgument& e) {
    EXPECT_STREQ(e.what(),
                 "sweep row 1 (fs_gbs=1e+12 parallel_tasks=2.5): sweep axis "
                 "'parallel_tasks' needs positive integers, got 2.5");
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
// at_into(flat) must decode the flat index row-major (first axis slowest)
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
      const Scenario scenario = row_at(grid, flat);
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
    EXPECT_DOUBLE_EQ(row_at(grid, 0).params[0].second, axes[0].values[0]);
    EXPECT_DOUBLE_EQ(row_at(grid, grid.size() - 1).params[0].second,
                     axes[0].values.back());
    EXPECT_THROW(row_at(grid, grid.size()), util::InvalidArgument);
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

TEST(ScenarioResultLineTest, StableFieldOrderWithParams) {
  const std::vector<Scenario> grid = expand_grid(
      test_system(), test_workflow(), {{"nodes_per_task", {2.0}}});
  SweepRunner runner({1});
  const ModelSummary r = runner.run_models(grid)[0];
  std::string line;
  append_result_line(line, grid[0].label, grid[0].params, r.parallelism_wall,
                     r.attainable_tps_at_wall, r.binding_label,
                     r.binding_channel, r.slot_seconds,
                     r.campaign_makespan_seconds);
  EXPECT_EQ(line.find("{\"sweep\":\"nodes_per_task=2\""), 0u);
  EXPECT_NE(line.find("\"params\":{\"nodes_per_task\":2}"),
            std::string::npos);
  EXPECT_NE(line.find("\"wall\":"), std::string::npos);
  EXPECT_NE(line.find("\"campaign_makespan_s\":"), std::string::npos);
}

// /v1/sweep?format=json splices the streamed rows into its "points" array
// as they are.  That equals parsing each row and dumping it again only if
// the row writer and the Json serializer agree byte for byte, which is
// checked here on every axis, every binding channel and a workflow name
// that needs escaping.  The three workflows each make one node memory
// channel dominant and put every other demand in a band of its own; the
// rate axes run from far below to far above each demand, so the binding
// ceiling moves across channels.
TEST(ScenarioResultLineTest, StreamedRowsDumpAsTheyParse) {
  const core::SystemSpec system = core::SystemSpec::perlmutter_gpu();
  core::WorkflowCharacterization named = test_workflow();
  named.name = "all \"channels\" \\ caf\xc3\xa9 \xe2\x80\x94\t\x01";
  std::vector<SweepGrid> grids;
  grids.emplace_back(system, named, std::vector<ParamAxis>{});
  const std::vector<ParamAxis> axes = {
      {"peak_flops", {2.5, 2.5e8, 2.5e16, 2.5e22}},
      {"nic_gbs", {4e2, 4e12, 4e22}},
      {"fs_gbs", {6e1, 6e11, 6e21}},
      {"external_gbs", {7e3, 7e13, 7e23}},
      {"efficiency", {1, 1e-8}},
      {"nodes_per_task", {1, 8}},
      {"parallel_tasks", {16, 64}},
      {"total_tasks", {4096}},
      {"total_nodes", {1024, 4096}},
  };
  struct Demands {
    double dram, hbm, pcie, flops, network, overhead, fs, external;
  };
  for (const Demands& d : {Demands{2e4, 1e1, 1e1, 3e2, 5e4, 2e-7, 8e5, 3e6},
                           Demands{1e1, 6e5, 1e1, 3e14, 5e2, 4e-2, 8e11, 3e12},
                           Demands{1e1, 1e1, 1e12, 3e14, 5e9, 5e3, 8e17,
                                   3e15}}) {
    core::WorkflowCharacterization wf = named;
    wf.total_tasks = 4096;
    wf.parallel_tasks = 64;
    wf.nodes_per_task = 1;
    wf.dram_bytes_per_node = d.dram;
    wf.hbm_bytes_per_node = d.hbm;
    wf.pcie_bytes_per_node = d.pcie;
    wf.flops_per_node = d.flops;
    wf.network_bytes_per_task = d.network;
    wf.overhead_seconds_per_task = d.overhead;
    wf.fs_bytes_per_task = d.fs;
    wf.external_bytes_per_task = d.external;
    grids.emplace_back(system, wf, axes);
  }
  for (const std::string_view axis : kSweepAxes)
    EXPECT_TRUE(std::ranges::any_of(
        axes, [axis](const ParamAxis& a) { return a.name == axis; }))
        << axis;

  SweepRunner runner({2});
  std::set<std::string> channels;
  std::size_t rows = 0;
  for (const SweepGrid& grid : grids)
    runner.stream_lines(grid, {}, [&](std::size_t, std::string_view line) {
      const std::string_view row = line.substr(0, line.size() - 1);
      const util::Json json = util::Json::parse(row);
      ASSERT_EQ(json.dump(), row);
      channels.insert(json.at("channel").as_string());
      ++rows;
    });
  EXPECT_EQ(rows, 1 + 3 * grids.back().size());
  EXPECT_EQ(channels,
            (std::set<std::string>{"compute", "dram", "hbm", "pcie",
                                   "network", "overhead", "filesystem",
                                   "external"}));
}

}  // namespace
}  // namespace wfr::exec

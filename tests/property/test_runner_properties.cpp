// Property tests for the workflow runner: lower bounds, monotonicity
// under bandwidth/contention changes, and trace consistency over random
// workflows.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "math/rng.hpp"
#include "sim/runner.hpp"
#include "trace/summary.hpp"

namespace wfr::sim {
namespace {

MachineConfig random_machine(math::Rng& rng) {
  MachineConfig m;
  m.name = "random";
  m.total_nodes = static_cast<int>(rng.uniform_int(16, 256));
  m.node_flops = rng.uniform(1e12, 50e12);
  m.dram_gbs = rng.uniform(50e9, 500e9);
  m.hbm_gbs = rng.uniform(1e12, 8e12);
  m.pcie_gbs = rng.uniform(25e9, 200e9);
  m.nic_gbs = rng.uniform(10e9, 100e9);
  m.fs_gbs = rng.uniform(100e9, 5e12);
  m.external_gbs = rng.uniform(1e9, 50e9);
  return m;
}

dag::WorkflowGraph random_workflow(math::Rng& rng, int max_nodes) {
  const int tasks = static_cast<int>(rng.uniform_int(2, 24));
  dag::WorkflowGraph g("random");
  for (int i = 0; i < tasks; ++i) {
    dag::TaskSpec t;
    t.name = "t" + std::to_string(i);
    t.nodes = static_cast<int>(rng.uniform_int(1, std::min(8, max_nodes)));
    if (rng.bernoulli(0.5)) t.demand.external_in_bytes = rng.uniform(1e9, 1e12);
    if (rng.bernoulli(0.7)) t.demand.fs_read_bytes = rng.uniform(1e8, 1e11);
    if (rng.bernoulli(0.5)) t.demand.fs_write_bytes = rng.uniform(1e8, 1e11);
    if (rng.bernoulli(0.8)) t.demand.flops_per_node = rng.uniform(1e12, 1e15);
    if (rng.bernoulli(0.5))
      t.demand.dram_bytes_per_node = rng.uniform(1e9, 1e12);
    if (rng.bernoulli(0.3)) t.demand.network_bytes = rng.uniform(1e9, 1e12);
    if (rng.bernoulli(0.3)) t.demand.overhead_seconds = rng.uniform(0.1, 5.0);
    const dag::TaskId id = g.add_task(std::move(t));
    // Random dependencies on earlier tasks keep the graph acyclic.
    for (dag::TaskId p = 0; p < id; ++p)
      if (rng.bernoulli(0.15)) g.add_dependency(p, id);
  }
  return g;
}

class RunnerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RunnerProperty, MakespanRespectsChannelLowerBounds) {
  math::Rng rng(GetParam());
  const MachineConfig m = random_machine(rng);
  const dag::WorkflowGraph g = random_workflow(rng, m.total_nodes);
  const trace::WorkflowTrace t = run_workflow(g, m);

  const dag::ResourceDemand total = g.total_demand();
  // Shared channels: the makespan can never beat volume / capacity.
  EXPECT_GE(t.makespan_seconds() + 1e-6,
            total.external_in_bytes / m.external_gbs);
  EXPECT_GE(t.makespan_seconds() + 1e-6,
            (total.fs_read_bytes + total.fs_write_bytes) / m.fs_gbs);
  // Critical path of uncontended estimates is also a lower bound.
  std::vector<double> floor_durations;
  for (dag::TaskId id = 0; id < g.task_count(); ++id)
    floor_durations.push_back(uncontended_task_seconds(g.task(id), m));
  EXPECT_GE(t.makespan_seconds() + 1e-6,
            g.critical_path(floor_durations).length_seconds * (1.0 - 1e-9));
}

TEST_P(RunnerProperty, TraceIsConsistentWithGraph) {
  math::Rng rng(GetParam());
  const MachineConfig m = random_machine(rng);
  const dag::WorkflowGraph g = random_workflow(rng, m.total_nodes);
  const trace::WorkflowTrace t = run_workflow(g, m);

  ASSERT_EQ(t.records().size(), g.task_count());
  // Dependencies are respected and counters match demands.
  std::vector<const trace::TaskRecord*> by_id(g.task_count());
  for (const trace::TaskRecord& r : t.records()) by_id[r.task] = &r;
  for (dag::TaskId id = 0; id < g.task_count(); ++id) {
    ASSERT_NE(by_id[id], nullptr);
    for (dag::TaskId pred : g.predecessors(id))
      EXPECT_GE(by_id[id]->start_seconds, by_id[pred]->end_seconds - 1e-9);
    const trace::ChannelCounters expected =
        trace::counters_from_demand(g.task(id).demand, g.task(id).nodes);
    EXPECT_DOUBLE_EQ(by_id[id]->counters.flops, expected.flops);
    EXPECT_DOUBLE_EQ(by_id[id]->counters.external_in_bytes,
                     expected.external_in_bytes);
    // Spans tile the task interval.
    double covered = 0.0;
    for (const trace::Span& s : by_id[id]->spans) covered += s.duration();
    EXPECT_NEAR(covered, by_id[id]->duration(), 1e-6);
  }
}

TEST_P(RunnerProperty, MoreBandwidthNeverHurts) {
  math::Rng rng(GetParam());
  const MachineConfig m = random_machine(rng);
  const dag::WorkflowGraph g = random_workflow(rng, m.total_nodes);
  const double base = run_workflow(g, m).makespan_seconds();

  MachineConfig faster = m;
  faster.fs_gbs *= 2.0;
  faster.external_gbs *= 2.0;
  faster.node_flops *= 2.0;
  faster.dram_gbs *= 2.0;
  faster.hbm_gbs *= 2.0;
  faster.pcie_gbs *= 2.0;
  faster.nic_gbs *= 2.0;
  const double boosted = run_workflow(g, faster).makespan_seconds();
  EXPECT_LE(boosted, base + 1e-6);
}

TEST_P(RunnerProperty, BackgroundLoadNeverHelps) {
  math::Rng rng(GetParam());
  const MachineConfig m = random_machine(rng);
  const dag::WorkflowGraph g = random_workflow(rng, m.total_nodes);
  const double base = run_workflow(g, m).makespan_seconds();

  RunOptions contended;
  BackgroundLoad load;
  load.channel = rng.bernoulli(0.5) ? BackgroundLoad::Channel::kFilesystem
                                    : BackgroundLoad::Channel::kExternal;
  load.flows = static_cast<int>(rng.uniform_int(1, 8));
  contended.background.push_back(load);
  const double slowed = run_workflow(g, m, contended).makespan_seconds();
  EXPECT_GE(slowed, base - 1e-6);
}

TEST_P(RunnerProperty, SmallerPoolCannotHelpMuch) {
  // Strict monotonicity does NOT hold for greedy list scheduling (Graham
  // anomalies: fewer nodes can reduce shared-channel contention on the
  // critical path), but large speedups from shrinking the pool would
  // indicate a bug.
  math::Rng rng(GetParam());
  const MachineConfig m = random_machine(rng);
  const dag::WorkflowGraph g = random_workflow(rng, m.total_nodes);
  const double base = run_workflow(g, m).makespan_seconds();

  MachineConfig cramped = m;
  cramped.total_nodes = std::max(8, m.total_nodes / 4);
  const double slowed = run_workflow(g, cramped).makespan_seconds();
  EXPECT_GE(slowed, 0.9 * base);
}

TEST_P(RunnerProperty, NodeUsageNeverExceedsThePool) {
  // The true resource invariant: at every instant the nodes of running
  // tasks fit in the pool.  (Task-count concurrency can exceed the
  // widest *level* because tasks from different levels overlap when
  // durations differ.)
  math::Rng rng(GetParam());
  const MachineConfig m = random_machine(rng);
  const dag::WorkflowGraph g = random_workflow(rng, m.total_nodes);
  MachineConfig pool = m;
  pool.total_nodes = std::max(8, m.total_nodes / 2);
  const trace::WorkflowTrace t = run_workflow(g, pool);

  std::vector<std::pair<double, int>> events;
  for (const trace::TaskRecord& r : t.records()) {
    if (r.duration() <= 0.0) continue;
    events.emplace_back(r.start_seconds, r.nodes);
    events.emplace_back(r.end_seconds, -r.nodes);
  }
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;  // releases before grabs at ties
  });
  int in_use = 0;
  for (const auto& [time, delta] : events) {
    in_use += delta;
    EXPECT_LE(in_use, pool.total_nodes);
    EXPECT_GE(in_use, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunnerProperty,
                         ::testing::Values(2, 3, 5, 7, 11, 13, 17, 19, 23,
                                           29));

}  // namespace
}  // namespace wfr::sim

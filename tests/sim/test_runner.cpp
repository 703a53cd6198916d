#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "trace/summary.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace wfr::sim {
namespace {

using dag::TaskSpec;
using dag::WorkflowGraph;

// The trace record of the task named `name`.
const trace::TaskRecord& record_of(const trace::WorkflowTrace& trace,
                                   const std::string& name) {
  for (const trace::TaskRecord& r : trace.records())
    if (r.name == name) return r;
  throw std::out_of_range("no task record named " + name);
}

MachineConfig test_machine() {
  MachineConfig m;
  m.name = "test";
  m.total_nodes = 100;
  m.node_flops = 1e12;   // 1 TFLOP/s
  m.dram_gbs = 100e9;    // 100 GB/s
  m.hbm_gbs = 1e12;
  m.pcie_gbs = 50e9;
  m.nic_gbs = 10e9;
  m.fs_gbs = 1e12;       // 1 TB/s shared
  m.external_gbs = 5e9;  // 5 GB/s shared
  return m;
}

TaskSpec compute_task(const std::string& name, double flops_per_node,
                      int nodes = 1) {
  TaskSpec t;
  t.name = name;
  t.nodes = nodes;
  t.demand.flops_per_node = flops_per_node;
  return t;
}

TEST(WorkPhase, MaxOverChannels) {
  const MachineConfig m = test_machine();
  TaskSpec t = compute_task("t", 10e12);  // 10 s of compute
  t.demand.dram_bytes_per_node = 200e9;   // 2 s of DRAM
  EXPECT_DOUBLE_EQ(work_phase_seconds(t, m), 10.0);
  t.demand.dram_bytes_per_node = 5e12;    // 50 s of DRAM dominates
  EXPECT_DOUBLE_EQ(work_phase_seconds(t, m), 50.0);
}

TEST(WorkPhase, NetworkUsesAggregateNic) {
  const MachineConfig m = test_machine();
  TaskSpec t = compute_task("t", 0.0, 4);
  t.demand.network_bytes = 400e9;  // at 4 x 10 GB/s -> 10 s
  EXPECT_DOUBLE_EQ(work_phase_seconds(t, m), 10.0);
}

TEST(WorkPhase, MissingChannelThrows) {
  MachineConfig m = test_machine();
  m.hbm_gbs = 0.0;
  TaskSpec t = compute_task("t", 0.0);
  t.demand.hbm_bytes_per_node = 1e9;
  EXPECT_THROW(work_phase_seconds(t, m), util::InvalidArgument);
}

TEST(UncontendedEstimate, SumsPhases) {
  const MachineConfig m = test_machine();
  TaskSpec t = compute_task("t", 10e12);  // 10 s work
  t.demand.overhead_seconds = 1.0;
  t.demand.external_in_bytes = 10e9;  // 2 s at 5 GB/s
  t.demand.fs_read_bytes = 1e12;      // 1 s
  t.demand.fs_write_bytes = 2e12;     // 2 s
  EXPECT_DOUBLE_EQ(uncontended_task_seconds(t, m), 16.0);
}

TEST(UncontendedEstimate, FixedDurationIsALowerBound) {
  const MachineConfig m = test_machine();
  TaskSpec t = compute_task("t", 1e12);  // 1 s derived
  t.fixed_duration_seconds = 30.0;
  EXPECT_DOUBLE_EQ(uncontended_task_seconds(t, m), 30.0);
}

TEST(Runner, SingleComputeTask) {
  WorkflowGraph g("w");
  g.add_task(compute_task("t", 10e12));
  const trace::WorkflowTrace tr = run_workflow(g, test_machine());
  EXPECT_DOUBLE_EQ(tr.makespan_seconds(), 10.0);
  EXPECT_DOUBLE_EQ(record_of(tr, "t").time_in_phase(trace::Phase::kWork), 10.0);
}

TEST(Runner, PhasesExecuteInOrder) {
  WorkflowGraph g("w");
  TaskSpec t = compute_task("t", 10e12);
  t.demand.overhead_seconds = 1.0;
  t.demand.external_in_bytes = 10e9;
  t.demand.fs_read_bytes = 1e12;
  t.demand.fs_write_bytes = 2e12;
  g.add_task(t);
  const trace::WorkflowTrace tr = run_workflow(g, test_machine());
  const trace::TaskRecord& r = record_of(tr, "t");
  EXPECT_DOUBLE_EQ(r.duration(), 16.0);
  ASSERT_EQ(r.spans.size(), 5u);
  EXPECT_EQ(r.spans[0].phase, trace::Phase::kOverhead);
  EXPECT_EQ(r.spans[1].phase, trace::Phase::kExternalIn);
  EXPECT_EQ(r.spans[2].phase, trace::Phase::kFsRead);
  EXPECT_EQ(r.spans[3].phase, trace::Phase::kWork);
  EXPECT_EQ(r.spans[4].phase, trace::Phase::kFsWrite);
  for (std::size_t i = 1; i < r.spans.size(); ++i)
    EXPECT_DOUBLE_EQ(r.spans[i].start_seconds, r.spans[i - 1].end_seconds);
}

TEST(Runner, ZeroDemandPhasesProduceNoSpans) {
  WorkflowGraph g("w");
  g.add_task(compute_task("t", 10e12));
  const trace::WorkflowTrace tr = run_workflow(g, test_machine());
  ASSERT_EQ(record_of(tr, "t").spans.size(), 1u);
  EXPECT_EQ(record_of(tr, "t").spans[0].phase, trace::Phase::kWork);
}

TEST(Runner, DependenciesSerializeTasks) {
  WorkflowGraph g("w");
  const auto a = g.add_task(compute_task("a", 5e12));
  const auto b = g.add_task(compute_task("b", 3e12));
  g.add_dependency(a, b);
  const trace::WorkflowTrace tr = run_workflow(g, test_machine());
  EXPECT_DOUBLE_EQ(record_of(tr, "b").start_seconds, 5.0);
  EXPECT_DOUBLE_EQ(tr.makespan_seconds(), 8.0);
}

TEST(Runner, SharedFilesystemContention) {
  // Two tasks each read 1 TB from a 1 TB/s filesystem concurrently: fair
  // sharing means each sees 0.5 TB/s, so reads take 2 s, not 1 s.
  WorkflowGraph g("w");
  for (int i = 0; i < 2; ++i) {
    TaskSpec t = compute_task("t" + std::to_string(i), 0.0);
    t.demand.fs_read_bytes = 1e12;
    t.demand.flops_per_node = 1e12;  // 1 s work after the read
    g.add_task(t);
  }
  const trace::WorkflowTrace tr = run_workflow(g, test_machine());
  EXPECT_DOUBLE_EQ(
      record_of(tr, "t0").time_in_phase(trace::Phase::kFsRead), 2.0);
  EXPECT_DOUBLE_EQ(tr.makespan_seconds(), 3.0);
}

TEST(Runner, NodeLimitEnforcesParallelismWall) {
  // Pool of 100 nodes; 3 tasks of 50 nodes each: only two run at once.
  WorkflowGraph g("w");
  for (int i = 0; i < 3; ++i)
    g.add_task(compute_task("t" + std::to_string(i), 10e12, 50));
  const trace::WorkflowTrace tr = run_workflow(g, test_machine());
  EXPECT_EQ(tr.peak_concurrency(), 2);
  EXPECT_DOUBLE_EQ(tr.makespan_seconds(), 20.0);
}

TEST(Runner, BackfillSkipsBlockedHead) {
  // A 100-node task is running; a 60-node task is ready but cannot fit,
  // while a 30-node task behind it can... but with FCFS-with-skipping on
  // a fully busy machine both wait.  Instead: 70-node task running, then
  // queue: 60-node (blocked), 30-node (fits).  The 30-node one must start
  // immediately.
  WorkflowGraph g("w");
  const auto big = g.add_task(compute_task("big", 10e12, 70));
  const auto blocked = g.add_task(compute_task("blocked", 1e12, 60));
  const auto small = g.add_task(compute_task("small", 1e12, 30));
  (void)big;
  (void)blocked;
  (void)small;
  const trace::WorkflowTrace tr = run_workflow(g, test_machine());
  EXPECT_DOUBLE_EQ(record_of(tr, "small").start_seconds, 0.0);
  EXPECT_DOUBLE_EQ(record_of(tr, "blocked").start_seconds, 10.0);
}

TEST(Runner, PoolOptionLimitsNodes) {
  WorkflowGraph g("w");
  g.add_task(compute_task("a", 10e12, 10));
  g.add_task(compute_task("b", 10e12, 10));
  MachineConfig small = test_machine();
  small.total_nodes = 10;
  const trace::WorkflowTrace tr = run_workflow(g, small);
  EXPECT_DOUBLE_EQ(tr.makespan_seconds(), 20.0);  // serialized
}

TEST(Runner, TaskLargerThanPoolThrows) {
  WorkflowGraph g("w");
  g.add_task(compute_task("t", 1.0, 200));
  EXPECT_THROW(run_workflow(g, test_machine()), util::InvalidArgument);
}

TEST(Runner, FixedDurationPadsWork) {
  WorkflowGraph g("w");
  TaskSpec t = compute_task("t", 1e12);  // 1 s derived
  t.fixed_duration_seconds = 42.0;
  g.add_task(t);
  const trace::WorkflowTrace tr = run_workflow(g, test_machine());
  EXPECT_DOUBLE_EQ(tr.makespan_seconds(), 42.0);
}

TEST(Runner, FixedDurationCannotWaiveContention) {
  // Fixed 2 s duration, but the external load alone takes 10 s: the task
  // takes the contended time, not the fixed time.
  WorkflowGraph g("w");
  TaskSpec t = compute_task("t", 0.0);
  t.demand.external_in_bytes = 50e9;  // 10 s at 5 GB/s
  t.fixed_duration_seconds = 2.0;
  g.add_task(t);
  const trace::WorkflowTrace tr = run_workflow(g, test_machine());
  EXPECT_DOUBLE_EQ(tr.makespan_seconds(), 10.0);
}

TEST(Runner, BackgroundLoadSlowsExternalIngress) {
  WorkflowGraph g("w");
  TaskSpec t = compute_task("t", 0.0);
  t.demand.external_in_bytes = 50e9;  // 10 s at 5 GB/s uncontended
  g.add_task(t);
  RunOptions opts;
  BackgroundLoad load;
  load.channel = BackgroundLoad::Channel::kExternal;
  load.flows = 4;  // our task gets 1/5 of the link
  opts.background.push_back(load);
  const trace::WorkflowTrace tr = run_workflow(g, test_machine(), opts);
  EXPECT_DOUBLE_EQ(tr.makespan_seconds(), 50.0);
}

TEST(Runner, BackgroundLoadWindowEnds) {
  WorkflowGraph g("w");
  TaskSpec t = compute_task("t", 0.0);
  t.demand.external_in_bytes = 50e9;
  g.add_task(t);
  RunOptions opts;
  BackgroundLoad load;
  load.channel = BackgroundLoad::Channel::kExternal;
  load.flows = 1;  // halves the link while active
  load.start_seconds = 0.0;
  load.end_seconds = 10.0;
  opts.background.push_back(load);
  const trace::WorkflowTrace tr = run_workflow(g, test_machine(), opts);
  // 10 s at 2.5 GB/s = 25 GB; remaining 25 GB at 5 GB/s = 5 s -> 15 s.
  EXPECT_DOUBLE_EQ(tr.makespan_seconds(), 15.0);
}

TEST(Runner, CountersMatchDemands) {
  WorkflowGraph g("w");
  TaskSpec t = compute_task("t", 2e12, 4);
  t.demand.fs_read_bytes = 8e9;
  g.add_task(t);
  const trace::WorkflowTrace tr = run_workflow(g, test_machine());
  const trace::ChannelCounters c = tr.total_counters();
  EXPECT_DOUBLE_EQ(c.flops, 8e12);  // per-node x 4 nodes
  EXPECT_DOUBLE_EQ(c.fs_read_bytes, 8e9);
}

TEST(Runner, ForkJoinTrace) {
  // LCLS-shaped: 5 parallel loads from external + merge.
  TaskSpec branch = compute_task("analysis", 1e12, 2);
  branch.demand.external_in_bytes = 10e9;
  TaskSpec join = compute_task("merge", 0.0, 1);
  join.demand.fs_read_bytes = 5e9;
  WorkflowGraph g = dag::make_fork_join("lcls", branch, 5, join);
  const trace::WorkflowTrace tr = run_workflow(g, test_machine());
  // 5 concurrent external loads at 1 GB/s each: 10 s; + 1 s work.
  EXPECT_DOUBLE_EQ(record_of(tr, "analysis_0").duration(), 11.0);
  EXPECT_EQ(tr.peak_concurrency(), 5);
  // Merge starts when all branches are done.
  EXPECT_DOUBLE_EQ(record_of(tr, "merge").start_seconds, 11.0);
}

TEST(Runner, EmptyWorkflow) {
  WorkflowGraph g("w");
  const trace::WorkflowTrace tr = run_workflow(g, test_machine());
  EXPECT_TRUE(tr.empty());
  EXPECT_DOUBLE_EQ(tr.makespan_seconds(), 0.0);
}


TEST(RunnerDetailed, ReportsChannelStatsAndPeakNodes) {
  WorkflowGraph g("w");
  TaskSpec t = compute_task("t", 0.0, 4);
  t.demand.fs_read_bytes = 2e12;  // 2 s at 1 TB/s
  t.demand.flops_per_node = 3e12; // 3 s work
  g.add_task(t);
  const RunResult r = run_workflow_detailed(g, test_machine());
  EXPECT_DOUBLE_EQ(r.trace.makespan_seconds(), 5.0);
  EXPECT_NEAR(r.filesystem.busy_seconds, 2.0, 1e-9);
  EXPECT_NEAR(r.filesystem.volume_bytes, 2e12, 1e-3);
  EXPECT_NEAR(r.filesystem.utilization, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.external.busy_seconds, 0.0);
  EXPECT_EQ(r.peak_nodes_used, 4);
}

TEST(RunnerDetailed, BackgroundContentionLowersUtilization) {
  WorkflowGraph g("w");
  TaskSpec t = compute_task("t", 0.0);
  t.demand.external_in_bytes = 10e9;  // 2 s uncontended
  g.add_task(t);
  RunOptions opts;
  BackgroundLoad load;
  load.channel = BackgroundLoad::Channel::kExternal;
  load.flows = 1;  // halves the share
  opts.background.push_back(load);
  const RunResult r = run_workflow_detailed(g, test_machine(), opts);
  EXPECT_NEAR(r.external.busy_seconds, 4.0, 1e-9);
  EXPECT_NEAR(r.external.utilization, 0.5, 1e-9);
}

TEST(RunnerDetailed, ConcurrentTasksSaturateTheSharedChannel) {
  WorkflowGraph g("w");
  for (int i = 0; i < 4; ++i) {
    TaskSpec t = compute_task("t" + std::to_string(i), 0.0, 1);
    t.demand.fs_read_bytes = 1e12;
    g.add_task(t);
  }
  const RunResult r = run_workflow_detailed(g, test_machine());
  // 4 TB through a 1 TB/s channel, always saturated: 4 s busy, util 1.
  EXPECT_NEAR(r.filesystem.busy_seconds, 4.0, 1e-6);
  EXPECT_NEAR(r.filesystem.utilization, 1.0, 1e-6);
}

// A fork-join pushing volume through both shared channels, used by the
// observation tests below.
WorkflowGraph observed_workflow() {
  WorkflowGraph g("obs-wf");
  std::vector<dag::TaskId> stages;
  for (int i = 0; i < 3; ++i) {
    TaskSpec t = compute_task("stage" + std::to_string(i), 1e12);
    t.demand.external_in_bytes = 10e9;  // 2 s uncontended at 5 GB/s
    t.demand.fs_write_bytes = 1e12;     // 1 s at 1 TB/s
    stages.push_back(g.add_task(t));
  }
  TaskSpec merge = compute_task("merge", 0.0);
  merge.demand.fs_read_bytes = 3e12;
  const dag::TaskId m = g.add_task(merge);
  for (const dag::TaskId s : stages) g.add_dependency(s, m);
  return g;
}

TEST(Observation, ResourceSeriesConservesDeliveredVolume) {
  obs::Observation observation;
  RunOptions opts;
  opts.observe = &observation;
  const RunResult r =
      run_workflow_detailed(observed_workflow(), test_machine(), opts);

  // The probe accumulates the exact `delivered` term the engine adds to
  // completed_volume each advance, so the totals agree bit for bit.
  const obs::ResourceTimeSeries* fs = nullptr;
  const obs::ResourceTimeSeries* external = nullptr;
  for (const obs::ResourceTimeSeries& s : observation.probe.series()) {
    if (s.name() == "fs") fs = &s;
    if (s.name() == "external") external = &s;
  }
  ASSERT_NE(fs, nullptr);
  ASSERT_NE(external, nullptr);
  const double fs_bytes = fs->summarize().delivered_bytes;
  const double external_bytes = external->summarize().delivered_bytes;
  EXPECT_DOUBLE_EQ(fs_bytes, r.filesystem.volume_bytes);
  EXPECT_DOUBLE_EQ(external_bytes, r.external.volume_bytes);
  EXPECT_NEAR(fs_bytes, 6e12, 1e-3);  // 3 writes + merge read
  EXPECT_NEAR(external_bytes, 30e9, 1e-3);

  // Busy time integrates to the channel stats as well.
  double fs_busy = 0.0;
  for (const obs::ResourceSample& s : fs->samples())
    if (s.finite_flows > 0) fs_busy += s.duration_seconds;
  EXPECT_NEAR(fs_busy, r.filesystem.busy_seconds, 1e-9);
}

TEST(Observation, RunnerReportsWorkflowMetrics) {
  obs::Observation observation;
  RunOptions opts;
  opts.observe = &observation;
  run_workflow_detailed(observed_workflow(), test_machine(), opts);

  const obs::MetricsRegistry& reg = observation.registry;
  ASSERT_NE(reg.find_counter("runner.tasks_started"), nullptr);
  EXPECT_EQ(reg.find_counter("runner.tasks_started")->value(), 4u);
  EXPECT_EQ(reg.find_counter("runner.tasks_completed")->value(), 4u);
  // Snapshot lookups throw NotFound for an instrument that was never made.
  const util::Json snapshot = reg.snapshot();
  const util::Json& histograms = snapshot.at("histograms");
  EXPECT_EQ(histograms.at("runner.queue_wait_seconds").at("count").as_int(),
            4);
  // The three stages had a work phase; merge (0 flops) produced none.
  EXPECT_EQ(histograms.at("runner.phase_seconds.work").at("count").as_int(),
            3);
  EXPECT_EQ(
      histograms.at("runner.phase_seconds.external_in").at("count").as_int(),
      3);
  EXPECT_EQ(histograms.at("runner.phase_seconds.fs_read").at("count").as_int(),
            1);
  // Engine self-metrics arrive through the same registry.
  ASSERT_NE(reg.find_counter("engine.events_processed"), nullptr);
  EXPECT_GT(reg.find_counter("engine.events_processed")->value(), 0u);
  EXPECT_GT(snapshot.at("gauges").at("runner.makespan_seconds").as_number(),
            0.0);
}

TEST(Observation, PhasesBeyondOneHundredSecondsResolve) {
  // A chain of ingest phases of 200, 210 and 220 s at 5 GB/s: each lands
  // in a resolved bucket, not the overflow bucket, and the median reads
  // back within the 2.5% bucket error.
  WorkflowGraph g("long-phases");
  dag::TaskId previous = 0;
  for (int i = 0; i < 3; ++i) {
    TaskSpec t = compute_task("ingest" + std::to_string(i), 0.0);
    t.demand.external_in_bytes = (200.0 + 10.0 * i) * 5e9;
    const dag::TaskId id = g.add_task(t);
    if (i > 0) g.add_dependency(previous, id);
    previous = id;
  }
  obs::Observation observation;
  RunOptions opts;
  opts.observe = &observation;
  run_workflow_detailed(g, test_machine(), opts);

  const obs::LogHistogram& ingest =
      observation.registry.histogram("runner.phase_seconds.external_in");
  ASSERT_EQ(ingest.count(), 3u);
  for (const obs::LogHistogram::Bucket& bucket : ingest.nonzero_buckets())
    EXPECT_FALSE(std::isinf(bucket.upper_bound)) << bucket.upper_bound;
  EXPECT_NEAR(ingest.quantile(0.5), 210.0, 210.0 * 0.025);
  EXPECT_NEAR(ingest.max(), 220.0, 1e-6);
}

TEST(Observation, DoesNotPerturbTheSchedule) {
  const RunResult bare =
      run_workflow_detailed(observed_workflow(), test_machine());
  obs::Observation observation;
  RunOptions opts;
  opts.observe = &observation;
  const RunResult observed =
      run_workflow_detailed(observed_workflow(), test_machine(), opts);
  EXPECT_DOUBLE_EQ(bare.trace.makespan_seconds(),
                   observed.trace.makespan_seconds());
  EXPECT_DOUBLE_EQ(bare.filesystem.volume_bytes,
                   observed.filesystem.volume_bytes);
  EXPECT_DOUBLE_EQ(bare.filesystem.busy_seconds,
                   observed.filesystem.busy_seconds);
}

TEST(Observation, ResourceSamplingCanBeDisabled) {
  obs::Observation observation;
  observation.sample_resources = false;
  RunOptions opts;
  opts.observe = &observation;
  const RunResult r =
      run_workflow_detailed(observed_workflow(), test_machine(), opts);
  EXPECT_TRUE(observation.probe.series().empty());
  EXPECT_TRUE(r.resource_summaries.empty());
  // Metrics still flow.
  EXPECT_EQ(observation.registry.find_counter("runner.tasks_started")->value(),
            4u);
}

TEST(Observation, SummariesExposedOnRunResult) {
  obs::Observation observation;
  RunOptions opts;
  opts.observe = &observation;
  const RunResult r =
      run_workflow_detailed(observed_workflow(), test_machine(), opts);
  ASSERT_EQ(r.resource_summaries.size(), 2u);
  for (const obs::ResourceSummary& s : r.resource_summaries) {
    EXPECT_TRUE(s.name == "fs" || s.name == "external");
    EXPECT_GT(s.busy_seconds, 0.0);
    EXPECT_GT(s.delivered_bytes, 0.0);
    EXPECT_GT(s.p95_utilization, 0.0);
    EXPECT_LE(s.max_utilization, 1.0 + 1e-12);
  }
}

}  // namespace
}  // namespace wfr::sim

// Tests for SweepRunner::stream_lines.  StreamModelsTest covers the
// streaming protocol for model rows: deterministic in-order emission with
// a bounded reorder window, byte-identity against the buffering
// run_models path at any job count / window / resume split, and error
// propagation from both the evaluator and the sink, also across the
// workers' claim batches.  StreamLinesTest covers the summary fast path
// against the full-model path, the shard split, and a runner shared by
// concurrent callers.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/shard.hpp"
#include "exec/sweep.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"
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
  system.name = "stream-test-system";
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
  wf.name = "stream-test-workflow";
  wf.total_tasks = 56;
  wf.parallel_tasks = 28;
  wf.nodes_per_task = 2;
  wf.flops_per_node = 4.4e15;
  wf.dram_bytes_per_node = 2.0e13;
  wf.network_bytes_per_task = 1.0e11;
  wf.fs_bytes_per_task = 2.5e11;
  return wf;
}

SweepGrid test_grid() {
  return SweepGrid(test_system(), test_workflow(),
                   {{"efficiency", {1.0, 0.8, 0.6}},
                    {"nodes_per_task", {0.5, 1.0, 2.0, 4.0, 8.0}}});
}

/// A 64-row grid over the total_tasks axis, to span several claim
/// batches; `bad_rows` get a non-integer value, which the integer-axis
/// validation rejects when a worker materializes that row.
SweepGrid total_tasks_grid(std::initializer_list<std::size_t> bad_rows) {
  std::vector<double> values;
  for (std::size_t i = 0; i < 64; ++i)
    values.push_back(100.0 + static_cast<double>(i));
  for (const std::size_t row : bad_rows) values[row] += 0.5;
  return SweepGrid(test_system(), test_workflow(),
                   {{"total_tasks", std::move(values)}});
}

/// The reference bytes: the buffering path at --jobs 1.
std::string batch_ndjson(const SweepGrid& grid) {
  SweepRunner runner({1});
  const std::vector<Scenario> scenarios =
      expand_grid(grid.base_system(), grid.base_workflow(), grid.axes());
  const std::vector<ModelSummary> results = runner.run_models(scenarios);
  std::string ndjson;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ModelSummary& r = results[i];
    append_result_line(ndjson, scenarios[i].label, scenarios[i].params,
                       r.parallelism_wall, r.attainable_tps_at_wall,
                       r.binding_label, r.binding_channel, r.slot_seconds,
                       r.campaign_makespan_seconds);
    ndjson += '\n';
  }
  return ndjson;
}

/// One stream on a fresh runner, as one string.
std::string stream_ndjson(const SweepGrid& grid, int jobs,
                          std::size_t window, std::size_t start_row = 0,
                          const ShardSpec& shard = {}) {
  SweepRunner runner({jobs});
  StreamOptions stream;
  stream.reorder_window = window;
  stream.start_row = start_row;
  stream.shard = shard;
  std::string ndjson;
  runner.stream_lines(grid, stream,
                      [&ndjson](std::size_t, std::string_view line) {
                        ndjson += line;
                      });
  return ndjson;
}

// Windows 15, 16 and 17 sit at the claim batch size (16), where a claim
// stops being bounded by the window (an emitted run is bounded by the
// window alone); the 64-row grid spans several batches at each.
TEST(StreamModelsTest, MatchesBatchBytesAtAnyJobsAndWindow) {
  for (const SweepGrid& grid : {test_grid(), total_tasks_grid({})}) {
    const std::string reference = batch_ndjson(grid);
    ASSERT_FALSE(reference.empty());
    for (int jobs : {1, 2, 8})
      for (std::size_t window :
           {std::size_t{1}, std::size_t{4}, std::size_t{15}, std::size_t{16},
            std::size_t{17}, std::size_t{1024}})
        EXPECT_EQ(reference, stream_ndjson(grid, jobs, window))
            << "rows=" << grid.size() << " jobs=" << jobs
            << " window=" << window;
  }
}

TEST(StreamModelsTest, RowsArriveStrictlyInOrder) {
  const SweepGrid grid = test_grid();
  SweepRunner runner({8});
  std::vector<std::size_t> rows;
  runner.stream_lines(grid, {/*reorder_window=*/4},
                      [&rows](std::size_t row, std::string_view line) {
                        rows.push_back(row);
                        EXPECT_EQ(line.back(), '\n');
                      });
  ASSERT_EQ(rows.size(), grid.size());
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], i);
}

TEST(StreamModelsTest, ResumeSplitReassemblesByteIdentically) {
  const SweepGrid grid = test_grid();
  const std::string reference = batch_ndjson(grid);
  for (std::size_t split : {std::size_t{1}, std::size_t{7}, grid.size() - 1}) {
    // First run stops (sink abort) after `split` rows; second run resumes
    // at start_row=split on a fresh runner, as `wfr sweep --resume` does.
    std::string first;
    SweepRunner one({2});
    try {
      one.stream_lines(grid, {/*reorder_window=*/4},
                       [&](std::size_t row, std::string_view line) {
                         first += line;
                         if (row + 1 == split)
                           throw util::Error("simulated kill");
                       });
      FAIL() << "sink abort did not propagate";
    } catch (const util::Error&) {
    }
    const std::string rest = stream_ndjson(grid, 8, 4, split);
    EXPECT_EQ(reference, first + rest) << "split=" << split;
  }
}

TEST(StreamModelsTest, StartRowAtEndEmitsNothing) {
  const SweepGrid grid = test_grid();
  EXPECT_EQ(stream_ndjson(grid, 2, 4, grid.size()), "");
}

// A throwing sink stops the stream after the current row, whether that
// row is in the first claim batch or a later one, at any job count and
// window.
TEST(StreamModelsTest, SinkExceptionStopsAfterCurrentRow) {
  const SweepGrid grid = total_tasks_grid({});
  for (const std::size_t failing_row : {std::size_t{3}, std::size_t{20}}) {
    for (const int jobs : {2, 4, 8}) {
      SweepRunner runner({jobs});
      for (const std::size_t window :
           {std::size_t{1}, std::size_t{4}, std::size_t{8}, std::size_t{15},
            std::size_t{16}, std::size_t{17}, std::size_t{1024}}) {
        StreamOptions stream;
        stream.reorder_window = window;
        std::vector<std::size_t> rows;
        EXPECT_THROW(
            runner.stream_lines(grid, stream,
                                [&](std::size_t row, std::string_view) {
                                  rows.push_back(row);
                                  if (row == failing_row)
                                    throw util::Error("sink failed");
                                }),
            util::Error);
        // Rows up to the failure stayed emitted, in order, exactly once.
        ASSERT_EQ(rows.size(), failing_row + 1)
            << "jobs=" << jobs << " window=" << window;
        for (std::size_t i = 0; i < rows.size(); ++i)
          EXPECT_EQ(rows[i], i) << "jobs=" << jobs << " window=" << window;
      }
    }
  }
}

TEST(StreamModelsTest, EvaluatorErrorPropagatesAndEarlierRowsEmit) {
  // total_tasks=2.5 is rejected by the integer-axis validation when the
  // worker materializes that row, exercising the evaluator-error path.
  const SweepGrid grid(test_system(), test_workflow(),
                       {{"total_tasks", {56.0, 60.0, 2.5, 64.0}}});
  const std::string reference_rows =
      batch_ndjson(SweepGrid(test_system(), test_workflow(),
                             {{"total_tasks", {56.0, 60.0}}}));
  for (int jobs : {1, 4}) {
    SweepRunner runner({jobs});
    std::vector<std::size_t> rows;
    try {
      runner.stream_lines(grid, {/*reorder_window=*/2},
                          [&rows](std::size_t row, std::string_view) {
                            rows.push_back(row);
                          });
      FAIL() << "jobs=" << jobs << ": the bad row did not throw";
    } catch (const util::InvalidArgument& e) {
      // The error names the failing row and its coordinates.
      EXPECT_EQ(std::string(e.what()),
                "sweep row 2 (total_tasks=2.5): sweep axis 'total_tasks' "
                "needs positive integers, got 2.5")
          << "jobs=" << jobs;
    }
    // Everything before the failing row may emit; the failing row and
    // anything after it must not.
    for (const std::size_t row : rows) EXPECT_LT(row, 2u);
  }
  // At one job the rows before the failure are all emitted, byte-exact.
  SweepRunner serial({1});
  std::string emitted;
  EXPECT_THROW(serial.stream_lines(grid, {},
                                   [&emitted](std::size_t,
                                              std::string_view line) {
                                     emitted += line;
                                   }),
               util::InvalidArgument);
  EXPECT_EQ(emitted, reference_rows);
}

// Two rows fail, in different claim batches.  The worker that claimed the
// lower one evaluates it whatever the other worker recorded, so the
// stream always reports the lower row and emits no row at or past it.
// Which error is recorded first depends on the interleaving: rows 31 and
// 32 end and start adjacent batches, so 32 usually fails first; row 40
// fails mid-batch while row 63's batch is usually already claimed, so 40
// usually fails first.
TEST(StreamModelsTest, LowestFailingRowWinsAcrossClaimBatches) {
  struct Case {
    SweepGrid grid;
    std::size_t lowest;
    const char* message;
  };
  const Case cases[] = {
      {total_tasks_grid({5, 37}), 5,
       "sweep row 5 (total_tasks=105.5): sweep axis 'total_tasks' needs "
       "positive integers, got 105.5"},
      {total_tasks_grid({31, 32}), 31,
       "sweep row 31 (total_tasks=131.5): sweep axis 'total_tasks' needs "
       "positive integers, got 131.5"},
      {total_tasks_grid({40, 63}), 40,
       "sweep row 40 (total_tasks=140.5): sweep axis 'total_tasks' needs "
       "positive integers, got 140.5"},
  };
  for (const int jobs : {2, 4, 8}) {
    SweepRunner runner({jobs});
    for (int round = 0; round < 20; ++round) {
      for (const Case& c : cases) {
        for (const std::size_t window :
             {std::size_t{1}, std::size_t{3}, std::size_t{1024}}) {
          const std::string where = "jobs=" + std::to_string(jobs) +
                                    " window=" + std::to_string(window) +
                                    " lowest=" + std::to_string(c.lowest);
          StreamOptions stream;
          stream.reorder_window = window;
          std::vector<std::size_t> rows;
          try {
            runner.stream_lines(c.grid, stream,
                                [&rows](std::size_t row, std::string_view) {
                                  rows.push_back(row);
                                });
            ADD_FAILURE() << where << ": the bad rows did not throw";
          } catch (const util::InvalidArgument& e) {
            EXPECT_EQ(std::string(e.what()), c.message) << where;
          }
          EXPECT_LE(rows.size(), c.lowest) << where;
          for (std::size_t i = 0; i < rows.size(); ++i)
            EXPECT_EQ(rows[i], i) << where;
        }
      }
    }
  }
}

// The window is a hard bound on rows claimed but not yet emitted.  Each
// row's "evaluate" span opens a root scope on a pool thread, so the
// tracer's traces_started counts rows whose evaluation has started; while
// the sink holds row 0, no claim batch may reach past row window - 1.
TEST(StreamModelsTest, WindowBoundsRowsStartedWhileTheSinkBlocks) {
  const SweepGrid grid = total_tasks_grid({});
  for (const std::size_t window :
       {std::size_t{1}, std::size_t{5}, std::size_t{16}, std::size_t{40}}) {
    obs::Tracer tracer;
    SweepRunner runner({8});
    runner.set_tracer(&tracer);
    StreamOptions stream;
    stream.reorder_window = window;
    std::uint64_t started_while_blocked = 0;
    runner.stream_lines(grid, stream,
                        [&](std::size_t row, std::string_view) {
                          if (row != 0) return;
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(50));
                          started_while_blocked =
                              tracer.stats().traces_started;
                        });
    EXPECT_GE(started_while_blocked, 1u) << "window=" << window;
    EXPECT_LE(started_while_blocked, window) << "window=" << window;
    EXPECT_EQ(tracer.stats().traces_started, grid.size())
        << "window=" << window;
  }
}

// A worker claims up to 16 rows, so while the owner of rows 0-15 sits in
// the sink at row 0, a row past the first claim batch can only start on
// another worker: the sink waits (at most 10 s) until more than 16 rows
// have started, which proves the stream ran concurrently.  The variant
// that throws at row 20 after the same hold must still emit rows 0-20
// once each, in order.
TEST(StreamModelsTest, SecondWorkerStartsRowsWhileTheSinkHoldsRowZero) {
  const SweepGrid grid = total_tasks_grid({});
  const std::string reference = batch_ndjson(grid);
  constexpr std::size_t kClaimBatch = 16;
  for (const int jobs : {2, 4, 8}) {
    for (const bool fail : {false, true}) {
      obs::Tracer tracer;
      SweepRunner runner({jobs});
      runner.set_tracer(&tracer);
      StreamOptions stream;
      stream.reorder_window = 1024;
      std::string ndjson;
      std::vector<std::size_t> rows;
      std::uint64_t started_while_held = 0;
      const auto sink = [&](std::size_t row, std::string_view line) {
        rows.push_back(row);
        ndjson += line;
        if (row == 0) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (tracer.stats().traces_started <= kClaimBatch &&
                 std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          started_while_held = tracer.stats().traces_started;
        }
        if (fail && row == 20) throw util::Error("sink failed");
      };
      const std::string where =
          "jobs=" + std::to_string(jobs) + (fail ? " failing" : "");
      if (fail) {
        EXPECT_THROW(runner.stream_lines(grid, stream, sink), util::Error)
            << where;
        ASSERT_EQ(rows.size(), 21u) << where;
        for (std::size_t i = 0; i < rows.size(); ++i)
          EXPECT_EQ(rows[i], i) << where;
      } else {
        runner.stream_lines(grid, stream, sink);
        EXPECT_EQ(ndjson, reference) << where;
      }
      EXPECT_GT(started_while_held, kClaimBatch) << where;
    }
  }
}

TEST(StreamModelsTest, RunnerIsReusableAfterAnError) {
  const SweepGrid grid = test_grid();
  SweepRunner runner({4});
  EXPECT_THROW(runner.stream_lines(grid, {},
                                   [](std::size_t, std::string_view) {
                                     throw util::Error("sink failed");
                                   }),
               util::Error);
  std::string ndjson;
  runner.stream_lines(grid, {},
                      [&ndjson](std::size_t, std::string_view line) {
                        ndjson += line;
                      });
  EXPECT_EQ(ndjson, batch_ndjson(grid));
}

TEST(StreamModelsTest, RejectsBadOptions) {
  const SweepGrid grid = test_grid();
  SweepRunner runner({1});
  StreamOptions zero_window;
  zero_window.reorder_window = 0;
  EXPECT_THROW(runner.stream_lines(grid, zero_window,
                                   [](std::size_t, std::string_view) {}),
               util::InvalidArgument);
  StreamOptions past_end;
  past_end.start_row = grid.size() + 1;
  EXPECT_THROW(runner.stream_lines(grid, past_end,
                                   [](std::size_t, std::string_view) {}),
               util::InvalidArgument);
  EXPECT_THROW(runner.stream_lines(grid, {}, nullptr),
               util::InvalidArgument);
}

// The fast path (stream_lines: per-worker scenario and ceiling scratch,
// ModelSummary, reused row buffer) must emit exactly the bytes of the
// labeled model (build_model on a freshly materialized row, its wall,
// binding ceilings and attainable throughput written by
// append_result_line) at any job count and window: the summary is an
// optimization, never a different evaluator.  On this grid compute, DRAM
// and the filesystem each bind on some row, and at 5 GB/s the filesystem
// binds even at one task, so both of the summary's binding scans are
// compared on more than one branch.
TEST(StreamLinesTest, MatchesStreamModelsBytesAtAnyJobsAndWindow) {
  const SweepGrid grid(test_system(), test_workflow(),
                       {{"fs_gbs", {5.0 * util::kGBs, 500.0 * util::kGBs,
                                    50000.0 * util::kGBs}},
                        {"peak_flops", {0.1 * util::kTFLOPS,
                                        10.0 * util::kTFLOPS,
                                        1000.0 * util::kTFLOPS}},
                        {"nodes_per_task", {0.5, 1.0, 4.0}}});
  std::string reference;
  std::set<std::string> channels;
  for (std::size_t flat = 0; flat < grid.size(); ++flat) {
    const Scenario scenario = row_at(grid, flat);
    const core::RooflineModel model =
        core::build_model(scenario.system, scenario.workflow);
    const int wall = model.parallelism_wall();
    const core::Ceiling& binding = model.binding_ceiling(wall);
    const double tps = model.attainable_tps(wall);
    const char* channel = core::channel_name(binding.channel);
    channels.insert(channel);
    append_result_line(reference, scenario.label, scenario.params, wall, tps,
                       binding.label, channel,
                       model.binding_ceiling(1.0).seconds_per_task,
                       scenario.workflow.total_tasks / tps);
    reference += '\n';
  }
  ASSERT_GT(channels.size(), 1u) << "the grid never moves the binding";
  for (int jobs : {1, 2, 8})
    for (std::size_t window : {std::size_t{1}, std::size_t{4},
                               std::size_t{1024}})
      EXPECT_EQ(reference, stream_ndjson(grid, jobs, window))
          << "jobs=" << jobs << " window=" << window;
}

TEST(StreamLinesTest, RowIndicesAreShardLocalAndDense) {
  const SweepGrid grid = test_grid();
  const ShardSpec shard{3, 1};
  SweepRunner runner({2});
  StreamOptions stream;
  stream.shard = shard;
  std::vector<std::size_t> rows;
  runner.stream_lines(grid, stream,
                      [&rows](std::size_t row, std::string_view) {
                        rows.push_back(row);
                      });
  ASSERT_EQ(rows.size(), shard.rows(grid.size()));
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], i);
}

// The multi-process contract at the library level: stream each shard on
// its own runner (its own jobs), re-interleave the lines by global row,
// and the result must be byte-identical to the unsharded stream — for
// shard counts that divide the grid and ones that leave a ragged tail,
// and any per-shard job count.
TEST(StreamLinesTest, ShardedStreamsReassembleByteIdentically) {
  const SweepGrid grid = test_grid();  // 15 rows: ragged under 2 and 4
  const std::string reference = batch_ndjson(grid);
  for (const int count : {2, 3, 4}) {
    for (const int jobs : {1, 4}) {
      std::vector<std::string> per_row(grid.size());
      for (int i = 0; i < count; ++i) {
        const ShardSpec shard{count, i};
        SweepRunner runner({jobs});
        StreamOptions stream;
        stream.shard = shard;
        stream.reorder_window = 4;
        runner.stream_lines(
            grid, stream,
            [&per_row, &shard](std::size_t row, std::string_view line) {
              per_row[shard.global_row(row)] = std::string(line);
            });
      }
      std::string merged;
      for (const std::string& line : per_row) merged += line;
      EXPECT_EQ(merged, reference) << "count=" << count << " jobs=" << jobs;
    }
  }
}

// A shard resumed from a shard-local checkpoint (start_row in shard
// coordinates, fresh runner) must append exactly the bytes the
// uninterrupted shard stream would have produced.
TEST(StreamLinesTest, ShardLocalResumeSplitsReassemble) {
  const SweepGrid grid = test_grid();
  const ShardSpec shard{3, 2};
  const std::string whole = stream_ndjson(grid, 1, 4, 0, shard);
  const std::size_t rows = shard.rows(grid.size());
  ASSERT_GT(rows, 2u);
  for (const std::size_t split : {std::size_t{1}, rows - 1}) {
    std::string first;
    {
      SweepRunner runner({2});
      StreamOptions stream;
      stream.shard = shard;
      try {
        runner.stream_lines(grid, stream,
                            [&](std::size_t row, std::string_view line) {
                              first += line;
                              if (row + 1 == split)
                                throw util::Error("simulated kill");
                            });
        FAIL() << "sink abort did not propagate";
      } catch (const util::Error&) {
      }
    }
    const std::string rest = stream_ndjson(grid, 4, 4, split, shard);
    EXPECT_EQ(first + rest, whole) << "split=" << split;
  }
}

TEST(StreamLinesTest, RejectsInvalidShard) {
  const SweepGrid grid = test_grid();
  SweepRunner runner({1});
  StreamOptions bad;
  bad.shard = {3, 3};  // index out of range
  EXPECT_THROW(
      runner.stream_lines(grid, bad, [](std::size_t, std::string_view) {}),
      util::InvalidArgument);
  // start_row is shard-local: one past the shard's own row count fails
  // even though the grid is larger.
  StreamOptions past_shard_end;
  past_shard_end.shard = {3, 0};
  past_shard_end.start_row =
      past_shard_end.shard.rows(grid.size()) + 1;
  EXPECT_THROW(runner.stream_lines(grid, past_shard_end,
                                   [](std::size_t, std::string_view) {}),
               util::InvalidArgument);
}

// `wfr serve` shares one runner across every request: eight threads
// stream concurrently through one pool, each with its own window, and
// every stream must still carry exactly the reference bytes.  The TSan CI
// job runs this against the shared pool and the per-stream state.
TEST(StreamLinesTest, EightThreadsShareOneRunner) {
  const SweepGrid grid = test_grid();
  const std::string reference = batch_ndjson(grid);
  SweepRunner runner({4});
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 10; ++round) {
        StreamOptions stream;
        stream.reorder_window = 1 + static_cast<std::size_t>(t % 4);
        std::string ndjson;
        runner.stream_lines(grid, stream,
                            [&ndjson](std::size_t, std::string_view line) {
                              ndjson += line;
                            });
        if (ndjson != reference) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace wfr::exec

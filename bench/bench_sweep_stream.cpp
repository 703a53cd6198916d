// Campaign-scale streaming sweep benchmark (BENCH_sweep_1m): streams a
// large all-distinct parameter grid through SweepRunner::stream_lines —
// the flattened per-scenario hot path behind `wfr sweep --stream` — and
// measures sustained throughput (points/s) plus memory behaviour — peak
// RSS and the RSS growth across the stream, which must stay flat
// regardless of grid size (the whole point of the streaming layer;
// docs/PARALLELISM.md).
//
// Three in-binary correctness floors exit the process nonzero when
// violated (bugs, not perf regressions):
//   * stream_matches_batch — stream_lines bytes of a small subgrid equal
//     the buffering run_models summaries written by append_result_line;
//   * resume_matches — streaming rows [0,k) and [k,n) in two separate
//     runner lifetimes concatenates to the uninterrupted byte sequence
//     (the library-level checkpoint/resume contract);
//   * shard_merge_matches — a 3-way stride shard split of the subgrid,
//     merged back through exec::merge_shard_outputs, equals the
//     single-stream bytes (the multi-process contract; exec/shard.hpp).
// Throughput and RSS are judged against bench/baselines/BENCH_sweep_1m
// .json by scripts/check_bench.py (RSS units gate lower-is-better).
//
// The grid size defaults to a reduced campaign that finishes quickly on
// a 1-core CI builder; override with WFR_BENCH_SWEEP_POINTS=1000000 for
// the full million-point run.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "core/model.hpp"
#include "exec/shard.hpp"
#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "util/units.hpp"

namespace {

using namespace wfr;

/// One field of /proc/self/status in MB (VmRSS, VmHWM), or 0.0 off
/// Linux / on parse failure — the baseline tolerance absorbs the zeros.
double status_mb(const char* field) {
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const double kb = std::strtod(line.c_str() + prefix.size(), nullptr);
    return kb / 1024.0;  // status reports kB
  }
#else
  (void)field;
#endif
  return 0.0;
}

core::SystemSpec bench_system() {
  core::SystemSpec system;
  system.name = "sweep-bench-system";
  system.total_nodes = 1536;
  system.node.peak_flops = 60.0 * util::kTFLOPS;
  system.node.dram_gbs = 200.0 * util::kGBs;
  system.node.nic_gbs = 25.0 * util::kGBs;
  system.fs_gbs = 5000.0 * util::kGBs;
  system.external_gbs = 100.0 * util::kGBs;
  return system;
}

core::WorkflowCharacterization bench_workflow() {
  core::WorkflowCharacterization wf;
  wf.name = "sweep-bench-workflow";
  wf.total_tasks = 4096;
  wf.parallel_tasks = 512;
  wf.nodes_per_task = 1;
  wf.flops_per_node = 2.0e15;
  wf.dram_bytes_per_node = 1.0e13;
  wf.network_bytes_per_task = 5.0e10;
  wf.fs_bytes_per_task = 2.0e11;
  return wf;
}

/// An approximately `points`-sized grid of all-distinct scenarios.
exec::SweepGrid bench_grid(std::size_t points) {
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(points))));
  const std::size_t rows = (points + side - 1) / side;
  exec::ParamAxis fs{"fs_gbs", {}};
  for (std::size_t i = 0; i < rows; ++i)
    fs.values.push_back((1000.0 + static_cast<double>(i)) * util::kGBs);
  exec::ParamAxis flops{"peak_flops", {}};
  for (std::size_t j = 0; j < side; ++j)
    flops.values.push_back((50.0 + static_cast<double>(j)) * util::kTFLOPS);
  return exec::SweepGrid(bench_system(), bench_workflow(), {fs, flops});
}

/// Streams rows [start, grid.size()) on a fresh runner, appending the
/// NDJSON bytes to `out`.
void stream_into(const exec::SweepGrid& grid, std::size_t start,
                 std::string& out) {
  exec::SweepRunner runner({0});
  exec::StreamOptions stream;
  stream.start_row = start;
  runner.stream_lines(grid, stream,
                      [&out](std::size_t, std::string_view line) {
                        out += line;
                      });
}

}  // namespace

int main() {
  bench::banner("SWEEP1M", "campaign-scale streaming sweep (stream_lines)");
  bench::emit_result_line("sweep1m/hardware_jobs", exec::hardware_jobs(),
                          "jobs");

  // Correctness floor 1: streamed bytes == buffering bytes on a subgrid.
  const exec::SweepGrid small = bench_grid(64);
  std::string batch;
  {
    exec::SweepRunner runner({1});
    const std::vector<exec::Scenario> scenarios = exec::expand_grid(
        small.base_system(), small.base_workflow(), small.axes());
    const std::vector<exec::ModelSummary> results =
        runner.run_models(scenarios);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const exec::ModelSummary& r = results[i];
      exec::append_result_line(batch, scenarios[i].label, scenarios[i].params,
                               r.parallelism_wall, r.attainable_tps_at_wall,
                               r.binding_label, r.binding_channel,
                               r.slot_seconds, r.campaign_makespan_seconds);
      batch += '\n';
    }
  }
  std::string streamed;
  stream_into(small, 0, streamed);
  const bool stream_matches = streamed == batch;
  std::printf("stream vs batch on %zu points: %s\n", small.size(),
              stream_matches ? "byte-identical" : "DIVERGED");
  bench::emit_result_line("stream_matches_batch", stream_matches ? 1.0 : 0.0,
                          "bool");

  // Correctness floor 2: a resume split re-assembles the same bytes even
  // across runner lifetimes (different completion order).
  const std::size_t split = small.size() / 3;
  std::string halves;
  {
    exec::SweepRunner first({0});
    std::size_t emitted = 0;
    try {
      first.stream_lines(small, {},
                         [&](std::size_t, std::string_view line) {
                           halves += line;
                           if (++emitted == split)
                             throw std::runtime_error("stop at split");
                         });
    } catch (const std::runtime_error&) {
      // The simulated kill: rows [0, split) are already in `halves`.
    }
  }
  stream_into(small, split, halves);
  const bool resume_matches = halves == batch;
  std::printf("resume split at row %zu: %s\n", split,
              resume_matches ? "byte-identical" : "DIVERGED");
  bench::emit_result_line("resume_matches", resume_matches ? 1.0 : 0.0,
                          "bool");

  // Correctness floor 3: a 3-way stride shard split, each shard streamed
  // on its own runner into its own part file, merges back byte-identical
  // to the single stream.
  bool shard_merge_matches = false;
  {
    namespace fs = std::filesystem;
    std::vector<std::string> parts;
    for (int i = 0; i < 3; ++i) {
      exec::StreamOptions stream;
      stream.shard = {3, i};
      const std::string path =
          (fs::temp_directory_path() /
           ("wfr_bench_sweep_shard" + std::to_string(i) + ".ndjson"))
              .string();
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      exec::SweepRunner runner({0});
      runner.stream_lines(small, stream,
                          [&out](std::size_t, std::string_view line) {
                            out.write(line.data(),
                                      static_cast<std::streamsize>(
                                          line.size()));
                          });
      out.close();
      parts.push_back(path);
    }
    std::ostringstream merged;
    exec::merge_shard_outputs(parts, small.size(), merged);
    for (const std::string& path : parts) fs::remove(path);
    shard_merge_matches = merged.str() == batch;
  }
  std::printf("3-way shard merge: %s\n",
              shard_merge_matches ? "byte-identical" : "DIVERGED");
  bench::emit_result_line("shard_merge_matches",
                          shard_merge_matches ? 1.0 : 0.0, "bool");

  // The campaign: stream the large grid.  The sink only counts bytes —
  // resident state must stay O(window + jobs).
  std::size_t points = 1 << 16;
  if (const char* env = std::getenv("WFR_BENCH_SWEEP_POINTS")) {
    const unsigned long long parsed = std::strtoull(env, nullptr, 10);
    if (parsed > 0) points = static_cast<std::size_t>(parsed);
  }
  const exec::SweepGrid grid = bench_grid(points);
  exec::SweepRunner runner;
  const double rss_before = status_mb("VmRSS");
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;
  const auto start = std::chrono::steady_clock::now();
  runner.stream_lines(grid, {},
                      [&](std::size_t, std::string_view line) {
                        ++rows;
                        bytes += line.size();
                      });
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double rss_after = status_mb("VmRSS");
  const double peak_rss = status_mb("VmHWM");
  const double rss_growth = rss_after > rss_before
                                ? rss_after - rss_before
                                : 0.0;
  const double points_per_s = static_cast<double>(rows) / seconds;

  std::printf("streamed %llu rows (%llu NDJSON bytes) in %.2f s — "
              "%.0f points/s\n",
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(bytes), seconds, points_per_s);
  std::printf("RSS: %.1f MB peak, %.1f MB growth across the stream\n",
              peak_rss, rss_growth);

  bench::emit_result_line("campaign/points_per_s", points_per_s, "items/s");
  bench::emit_result_line("campaign/peak_rss", peak_rss, "MB");
  bench::emit_result_line("campaign/rss_growth", rss_growth, "MB");

  const bool rows_complete = rows == grid.size();
  if (!rows_complete)
    std::printf("row count MISMATCH: %llu of %zu emitted\n",
                static_cast<unsigned long long>(rows), grid.size());

  const bool ok = stream_matches && resume_matches && shard_merge_matches &&
                  rows_complete;
  return ok ? 0 : 1;
}

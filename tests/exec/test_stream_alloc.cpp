// Heap traffic per streamed sweep row.  This file replaces the global
// operator new with a counting one, so it builds into an executable of its
// own (test_exec_alloc).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string_view>
#include <vector>

#include "exec/sweep.hpp"
#include "util/units.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wfr::exec {
namespace {

/// A fs_gbs x peak_flops grid of 64 x `flops_values` rows.  Neither axis
/// rescales intra-task parallelism, so materializing a row reuses the
/// worker's scenario without allocating.
SweepGrid grid_of(std::size_t flops_values) {
  core::SystemSpec system = core::SystemSpec::perlmutter_gpu();
  core::WorkflowCharacterization workflow;
  workflow.name = "alloc-test-workflow";
  workflow.total_tasks = 64;
  workflow.parallel_tasks = 32;
  workflow.nodes_per_task = 2;
  workflow.flops_per_node = 4.4e15;
  workflow.dram_bytes_per_node = 2.0e13;
  workflow.network_bytes_per_task = 1.0e11;
  workflow.fs_bytes_per_task = 2.5e11;
  std::vector<double> fs_gbs;
  std::vector<double> peak_flops;
  for (std::size_t i = 0; i < 64; ++i)
    fs_gbs.push_back(static_cast<double>(100 + i) * util::kGBs);
  for (std::size_t i = 0; i < flops_values; ++i)
    peak_flops.push_back(static_cast<double>(50 + i) * util::kTFLOPS);
  return SweepGrid(system, workflow,
                   {{"fs_gbs", std::move(fs_gbs)},
                    {"peak_flops", std::move(peak_flops)}});
}

/// Allocations made while `runner` streams `grid`; the sink only counts.
std::size_t allocations_to_stream(SweepRunner& runner, const SweepGrid& grid) {
  std::size_t bytes = 0;
  const std::size_t before = g_allocations.load();
  runner.stream_lines(grid, {},
                      [&bytes](std::size_t, std::string_view line) {
                        bytes += line.size();
                      });
  const std::size_t made = g_allocations.load() - before;
  EXPECT_GT(bytes, 0u);
  return made;
}

// Streaming 4096 more rows on a warm runner may cost one allocation per
// row (the binding label each summary formats) and a little slack for a
// line buffer that grows, at one job and at four: rows are formatted into
// line buffers that are reused from row to row (the reorder ring's slots,
// which the emitter sinks the lines from), and every other per-stream
// cost is the same for both grids, so it cancels.
TEST(StreamAlloc, OneAllocationPerStreamedRow) {
  const SweepGrid small = grid_of(64);
  const SweepGrid large = grid_of(128);
  ASSERT_EQ(large.size() - small.size(), 4096u);
  for (const int jobs : {1, 4}) {
    SweepRunner runner({jobs});
    allocations_to_stream(runner, large);  // warm the pool's threads
    const std::size_t for_small = allocations_to_stream(runner, small);
    const std::size_t for_large = allocations_to_stream(runner, large);
    ASSERT_GT(for_small, 0u) << "the counter saw nothing";
    EXPECT_LE(for_large - for_small, 4096u + 64u)
        << "jobs=" << jobs << ": " << for_small << " allocations for "
        << small.size() << " rows, " << for_large << " for " << large.size();
  }
}

}  // namespace
}  // namespace wfr::exec

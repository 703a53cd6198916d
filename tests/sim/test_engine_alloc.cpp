// Steady-state heap traffic of the fair-share engine.  This file replaces
// the global operator new with a counting one, so it builds into an
// executable of its own (test_sim_alloc).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "obs/registry.hpp"
#include "sim/engine.hpp"

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

namespace wfr::sim {
namespace {

// Starts `count` flows and drains them.  Each callback holds 16 bytes, as
// the runner's do, and groups of eight flows finish at the same instant,
// so completion steps carry batches of several callbacks.
void run_batch(Simulator& sim, ResourceId r, int count, std::int64_t* sum) {
  for (int i = 0; i < count; ++i) {
    auto on_complete = [sum, i] { *sum += i + 1; };
    auto on_cancel = [sum, i](double) { *sum -= i + 1; };
    static_assert(sizeof(on_complete) == 16 && sizeof(on_cancel) == 16);
    sim.start_flow(r, 1.0 + (i % 8), on_complete, on_cancel);
  }
  sim.run();
}

TEST(EngineAlloc, WarmSimulatorRunsFlowsWithoutAllocating) {
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 10.0);
  std::int64_t sum = 0;
  const std::size_t cold_start = g_allocations.load();
  run_batch(sim, r, 64, &sum);
  // The cold batch grows the slabs and heaps, which shows the counter is
  // live; an identical second batch must fit in what the first left.
  const std::size_t cold = g_allocations.load() - cold_start;
  ASSERT_GT(cold, 0u);
  ASSERT_EQ(sum, 64 * 65 / 2);

  const std::size_t warm_start = g_allocations.load();
  run_batch(sim, r, 64, &sum);
  const std::size_t warm = g_allocations.load() - warm_start;
  EXPECT_EQ(warm, 0u) << "cold batch made " << cold;
  EXPECT_EQ(sum, 64 * 65);
  EXPECT_EQ(sim.live_flows(), 0u);
  obs::MetricsRegistry registry;
  sim.export_metrics(registry);
  EXPECT_EQ(registry.find_counter("engine.flows_completed")->value(), 128u);
}

}  // namespace
}  // namespace wfr::sim

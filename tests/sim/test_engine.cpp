#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/registry.hpp"
#include "util/error.hpp"

namespace wfr::sim {
namespace {

TEST(Engine, TimeStartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Engine, TimedEventsFireInOrder) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(5.0, [&] { fired.push_back(2); });
  sim.schedule_at(1.0, [&] { fired.push_back(1); });
  sim.schedule_at(9.0, [&] { fired.push_back(3); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 9.0);
}

TEST(Engine, SimultaneousEventsFireInInsertionOrder) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(2.0, [&] { fired.push_back(1); });
  sim.schedule_at(2.0, [&] { fired.push_back(2); });
  sim.schedule_at(2.0, [&] { fired.push_back(3); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ScheduleAfterIsRelative) {
  Simulator sim;
  double when = -1.0;
  sim.schedule_at(3.0, [&] {
    sim.schedule_after(2.0, [&] { when = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(when, 5.0);
}

TEST(Engine, RejectsPastAndNegative) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), util::InvalidArgument);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), util::InvalidArgument);
}

TEST(Engine, SingleFlowRunsAtFullCapacity) {
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 100.0);
  double done_at = -1.0;
  sim.start_flow(r, 500.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done_at, 5.0);
  EXPECT_DOUBLE_EQ(sim.completed_volume(r), 500.0);
}

TEST(Engine, TwoEqualFlowsShareFairly) {
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 100.0);
  double a = -1.0, b = -1.0;
  sim.start_flow(r, 500.0, [&] { a = sim.now(); });
  sim.start_flow(r, 500.0, [&] { b = sim.now(); });
  sim.run();
  // Each gets 50/s: both finish at t=10.
  EXPECT_DOUBLE_EQ(a, 10.0);
  EXPECT_DOUBLE_EQ(b, 10.0);
}

TEST(Engine, ShorterFlowFinishesFirstThenSurvivorSpeedsUp) {
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 100.0);
  double small = -1.0, large = -1.0;
  sim.start_flow(r, 100.0, [&] { small = sim.now(); });
  sim.start_flow(r, 500.0, [&] { large = sim.now(); });
  sim.run();
  // Shared at 50/s until the small one drains at t=2; the large one then
  // has 400 left at 100/s -> finishes at t=6.
  EXPECT_DOUBLE_EQ(small, 2.0);
  EXPECT_DOUBLE_EQ(large, 6.0);
}

TEST(Engine, LateArrivalSlowsExistingFlow) {
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 100.0);
  double a = -1.0, b = -1.0;
  sim.start_flow(r, 600.0, [&] { a = sim.now(); });
  sim.schedule_at(2.0, [&] {
    sim.start_flow(r, 200.0, [&] { b = sim.now(); });
  });
  sim.run();
  // Flow A: 200 done by t=2 (full rate), then 50/s. B: 50/s from t=2,
  // finishing at t=6; A has 400-200=200 left at t=6, full rate after ->
  // t=8.
  EXPECT_DOUBLE_EQ(b, 6.0);
  EXPECT_DOUBLE_EQ(a, 8.0);
}

TEST(Engine, BackgroundFlowTakesAShare) {
  Simulator sim;
  const ResourceId r = sim.add_resource("ext", 10.0);
  double done = -1.0;
  sim.start_background_flow(r);
  sim.start_flow(r, 100.0, [&] { done = sim.now(); });
  sim.run();
  // The finite flow gets 5/s -> 20 s.
  EXPECT_DOUBLE_EQ(done, 20.0);
}

TEST(Engine, CancellingBackgroundRestoresBandwidth) {
  Simulator sim;
  const ResourceId r = sim.add_resource("ext", 10.0);
  const FlowId bg = sim.start_background_flow(r);
  double done = -1.0;
  sim.start_flow(r, 100.0, [&] { done = sim.now(); });
  sim.schedule_at(10.0, [&] { sim.cancel_flow(bg); });
  sim.run();
  // 5/s for 10 s (50 moved), then 10/s for the remaining 50 -> t=15.
  EXPECT_DOUBLE_EQ(done, 15.0);
}

TEST(Engine, BackgroundFlowDoesNotKeepSimulationAlive) {
  Simulator sim;
  const ResourceId r = sim.add_resource("ext", 10.0);
  sim.start_background_flow(r);
  sim.run();  // must terminate
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Engine, ZeroVolumeFlowCompletesImmediately) {
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 10.0);
  bool done = false;
  sim.start_flow(r, 0.0, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Engine, CapacityMustBePositive) {
  Simulator sim;
  EXPECT_THROW(sim.add_resource("x", 0.0), util::InvalidArgument);
  EXPECT_THROW(sim.add_resource("x", -1.0), util::InvalidArgument);
}

TEST(Engine, UnknownResourceThrows) {
  Simulator sim;
  EXPECT_THROW(sim.completed_volume(42), util::NotFound);
  EXPECT_THROW(sim.start_flow(7, 1.0, [] {}), util::NotFound);
}

TEST(Engine, CancelUnknownFlowIsIgnored) {
  Simulator sim;
  sim.add_resource("fs", 1.0);
  EXPECT_NO_THROW(sim.cancel_flow(12345));
  EXPECT_NO_THROW(sim.cancel_flow(kInvalidFlow));
}

TEST(Engine, CancelledFlowNeverFires) {
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 1.0);
  bool fired = false;
  const FlowId f = sim.start_flow(r, 100.0, [&] { fired = true; });
  sim.schedule_at(1.0, [&] { sim.cancel_flow(f); });
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelFiresCancellationCallbackWithRemainingVolume) {
  // Regression: cancelling a finite flow used to silently discard its
  // completion callback, surfacing later as a misleading stall at the
  // caller.  With an on_cancel handler the cancellation is observable.
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 10.0);
  bool completed = false;
  double cancelled_remaining = -1.0;
  const FlowId f = sim.start_flow(
      r, 100.0, [&] { completed = true; },
      [&](double remaining) { cancelled_remaining = remaining; });
  sim.schedule_at(4.0, [&] { sim.cancel_flow(f); });
  sim.run();
  EXPECT_FALSE(completed);
  // 40 units moved at 10/s by t=4; 60 were still pending.
  EXPECT_DOUBLE_EQ(cancelled_remaining, 60.0);
  EXPECT_EQ(sim.live_flows(), 0u);
}

TEST(Engine, CancelCreditsPartialVolume) {
  // The volume a cancelled flow already moved stays in completed_volume,
  // so busy-time utilization accounting remains consistent.
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 10.0);
  const FlowId f = sim.start_flow(r, 100.0, [] {});
  sim.schedule_at(4.0, [&] { sim.cancel_flow(f); });
  sim.run();
  EXPECT_DOUBLE_EQ(sim.completed_volume(r), 40.0);
  EXPECT_NEAR(sim.busy_seconds(r), 4.0, 1e-12);
  EXPECT_NEAR(sim.utilization(r), 1.0, 1e-12);
}

TEST(Engine, CancelCallbackDoesNotFireOnCompletion) {
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 10.0);
  bool completed = false, cancelled = false;
  const FlowId f = sim.start_flow(
      r, 50.0, [&] { completed = true; },
      [&](double) { cancelled = true; });
  sim.run();
  EXPECT_TRUE(completed);
  EXPECT_FALSE(cancelled);
  // Cancelling after completion is a no-op; the callback stays unfired.
  sim.cancel_flow(f);
  EXPECT_FALSE(cancelled);
}

TEST(Engine, ScheduleAtToleratesRoundingAtLargeTimes) {
  // Regression: an absolute 1e-12 past-tolerance made schedule_at throw
  // spuriously at facility-scale simulated times, where one ulp of `now`
  // is ~1e-7 s.  The tolerance is relative now.
  Simulator sim;
  double fired_at = -1.0;
  bool far_past_rejected = false;
  sim.schedule_at(1e9, [&] {
    // A caller-computed absolute time a hair below now() must be accepted
    // and clamped to now().
    sim.schedule_at(1e9 - 1e-4, [&] { fired_at = sim.now(); });
    // A genuinely past time must still be rejected.
    try {
      sim.schedule_at(1e9 - 1.0, [] {});
    } catch (const util::InvalidArgument&) {
      far_past_rejected = true;
    }
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 1e9);
  EXPECT_TRUE(far_past_rejected);
}

TEST(Engine, EventPayloadStorageIsReclaimed) {
  // A long chain of sequential events must reuse callback slots instead
  // of growing storage linearly with the total event count.
  Simulator sim;
  int remaining = 10000;
  std::function<void()> tick = [&] {
    if (--remaining > 0) sim.schedule_after(1.0, tick);
  };
  sim.schedule_after(0.0, tick);
  sim.run();
  EXPECT_EQ(remaining, 0);
  EXPECT_LE(sim.event_payload_slots(), 2u);
}

TEST(Engine, MassCancellationIsCleanAndReusesSlots) {
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 10.0);
  std::vector<FlowId> ids;
  for (int i = 0; i < 2000; ++i)
    ids.push_back(sim.start_flow(r, 1e6 + i, [] {}));
  for (FlowId id : ids) sim.cancel_flow(id);
  EXPECT_EQ(sim.live_flows(), 0u);
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  // Fresh flows after mass cancellation reuse the reclaimed slots.
  double done = -1.0;
  sim.start_flow(r, 50.0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 5.0);
}

TEST(Engine, SimultaneousCompletionsFireInCreationOrder) {
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 100.0);
  std::vector<int> order;
  sim.start_flow(r, 500.0, [&] { order.push_back(1); });
  sim.start_flow(r, 500.0, [&] { order.push_back(2); });
  sim.start_flow(r, 500.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// The low 32 bits of a FlowId name its slot; the tests below use that to
// make sure a slot really was reused.
std::uint32_t slot_of(FlowId id) { return static_cast<std::uint32_t>(id); }

TEST(Engine, StaleFlowIdLeavesTheSlotsNextFlowAlone) {
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 10.0);
  const FlowId a = sim.start_flow(r, 10.0, [] {});
  sim.run();
  // A's slot is free now and holds kInvalidFlow, which must still not
  // match a cancel of kInvalidFlow.
  sim.cancel_flow(kInvalidFlow);
  EXPECT_EQ(sim.live_flows(), 0u);
  bool b_done = false;
  const FlowId b = sim.start_flow(r, 10.0, [&] { b_done = true; });
  ASSERT_EQ(slot_of(b), slot_of(a));
  EXPECT_NE(b, a);
  // A's id, and a made-up id naming the same slot, must not reach B.
  sim.cancel_flow(a);
  sim.cancel_flow(b + (std::uint64_t{1} << 32));
  EXPECT_EQ(sim.live_flows(), 1u);
  sim.run();
  EXPECT_TRUE(b_done);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  obs::MetricsRegistry registry;
  sim.export_metrics(registry);
  EXPECT_EQ(registry.find_counter("engine.flows_cancelled")->value(), 0u);
}

TEST(Engine, SimultaneousCompletionsFireInCreationOrderAcrossReusedSlots) {
  // D reuses A's slot 0, below B's slot 1, and finishes at the same
  // instant as B.  Creation order, not slot order, decides who fires first.
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 100.0);
  std::vector<char> order;
  const FlowId a = sim.start_flow(r, 500.0, [&] { order.push_back('A'); });
  const FlowId b = sim.start_flow(r, 500.0, [&] { order.push_back('B'); });
  sim.cancel_flow(a);
  const FlowId d = sim.start_flow(r, 500.0, [&] { order.push_back('D'); });
  ASSERT_EQ(slot_of(d), slot_of(a));
  ASSERT_LT(slot_of(d), slot_of(b));
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'B', 'D'}));
}

TEST(Engine, FlowsOnDifferentResourcesAreIndependent) {
  Simulator sim;
  const ResourceId fs = sim.add_resource("fs", 100.0);
  const ResourceId ext = sim.add_resource("ext", 10.0);
  double fs_done = -1.0, ext_done = -1.0;
  sim.start_flow(fs, 100.0, [&] { fs_done = sim.now(); });
  sim.start_flow(ext, 100.0, [&] { ext_done = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(fs_done, 1.0);
  EXPECT_DOUBLE_EQ(ext_done, 10.0);
}

TEST(Engine, ChainedFlowsFromCallbacks) {
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 10.0);
  double second_done = -1.0;
  sim.start_flow(r, 50.0, [&] {
    sim.start_flow(r, 30.0, [&] { second_done = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(second_done, 8.0);
}

TEST(Engine, ActiveFlowCountTracksArrivalsAndDepartures) {
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 10.0);
  sim.start_flow(r, 100.0, [] {});
  sim.start_background_flow(r);
  EXPECT_EQ(sim.live_flows(), 2u);
  sim.run();
  EXPECT_EQ(sim.live_flows(), 1u);  // background remains
}

TEST(Engine, TimeLimitGuard) {
  Simulator sim;
  const ResourceId r = sim.add_resource("slow", 1e-6);
  sim.start_flow(r, 1e9, [] {});
  EXPECT_THROW(sim.run(1000.0), util::InternalError);
}

TEST(Engine, ManyFlowsConserveVolume) {
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 7.0);
  double total = 0.0;
  for (int i = 1; i <= 20; ++i) {
    const double volume = 10.0 * i;
    total += volume;
    sim.start_flow(r, volume, [] {});
  }
  sim.run();
  EXPECT_NEAR(sim.completed_volume(r), total, 1e-6);
  // Work-conserving: the resource is busy the whole time, so the end time
  // equals total volume / capacity.
  EXPECT_NEAR(sim.now(), total / 7.0, 1e-9);
}

TEST(Engine, FairShareIsWorkConservingUnderStagger) {
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 5.0);
  // Staggered arrivals must still finish at total/capacity because the
  // resource never idles once the first flow starts.
  sim.start_flow(r, 50.0, [] {});
  sim.schedule_at(1.0, [&] { sim.start_flow(r, 25.0, [] {}); });
  sim.schedule_at(2.0, [&] { sim.start_flow(r, 25.0, [] {}); });
  sim.run();
  EXPECT_NEAR(sim.now(), 100.0 / 5.0, 1e-9);
}


TEST(Engine, BusySecondsTracksFiniteFlowPresence) {
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 10.0);
  // Idle until t=5, then a 50-unit flow (5 s), idle again, then another.
  sim.schedule_at(5.0, [&] { sim.start_flow(r, 50.0, [] {}); });
  sim.schedule_at(20.0, [&] { sim.start_flow(r, 20.0, [] {}); });
  sim.run();
  EXPECT_NEAR(sim.busy_seconds(r), 5.0 + 2.0, 1e-9);
  EXPECT_NEAR(sim.utilization(r), 1.0, 1e-9);
}

TEST(Engine, BackgroundFlowsReduceUtilization) {
  Simulator sim;
  const ResourceId r = sim.add_resource("ext", 10.0);
  sim.start_background_flow(r);
  sim.start_flow(r, 50.0, [] {});  // gets 5/s -> 10 s busy, 50 delivered
  sim.run();
  EXPECT_NEAR(sim.busy_seconds(r), 10.0, 1e-9);
  EXPECT_NEAR(sim.utilization(r), 0.5, 1e-9);
}

TEST(Engine, IdleResourceHasZeroUtilization) {
  Simulator sim;
  const ResourceId r = sim.add_resource("fs", 10.0);
  sim.start_background_flow(r);  // background alone is not "busy"
  sim.schedule_at(3.0, [] {});
  sim.run();
  EXPECT_DOUBLE_EQ(sim.busy_seconds(r), 0.0);
  EXPECT_DOUBLE_EQ(sim.utilization(r), 0.0);
}

}  // namespace
}  // namespace wfr::sim

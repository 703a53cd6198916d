#pragma once
// Discrete-event simulation engine with fair-share bandwidth resources.
//
// Two primitives drive everything:
//   * timed events: a callback at an absolute simulation time;
//   * flows: a volume moving through a shared resource whose capacity is
//     split equally among the flows active on it (max-min fair share for a
//     single resource).  When the set of active flows changes, remaining
//     completion times are re-derived automatically.
//
// Background flows occupy a fair share forever (modeling contention from
// other workloads, e.g. the paper's "bad days" at LCLS) until cancelled.
//
// The engine is deterministic: simultaneous events fire in insertion
// order, and finite flows that drain at the same instant complete in flow
// creation order.  Callbacks may schedule new events and start new flows.
//
// Fair sharing is tracked incrementally in *virtual service time*: each
// resource accumulates the cumulative per-flow service it has delivered
// (volume units), and a finite flow completes when that accumulator
// reaches the value it had at the flow's admission plus the flow's
// volume.  Advancing time therefore touches each resource once (not each
// flow), the next completion is the top of a per-resource min-heap, and
// cancellation reads the flow's slot straight from its id.  Flows and
// event callbacks live in slabs with free-lists, so long simulations
// reuse storage instead of growing it; once warm, the engine allocates
// nothing per flow or step for callbacks that fit std::function's inline
// buffer (16 bytes in libstdc++).

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <vector>

namespace wfr::obs {
class MetricsRegistry;
class ResourceProbe;
}  // namespace wfr::obs

namespace wfr::sim {

using Callback = std::function<void()>;
/// Fired when a finite flow is cancelled; receives the volume that had not
/// yet moved (0 <= remaining <= the flow's original volume).
using CancelCallback = std::function<void(double remaining_volume)>;

/// Handle to a shared bandwidth resource.
using ResourceId = std::uint32_t;
/// Handle to an active flow; valid until the flow completes / is cancelled.
/// The low 32 bits hold the flow's slot in the engine's registry, the high
/// 32 bits a creation serial that starts at 1.  So no id is kInvalidFlow,
/// an id outlives its slot's reuse without aliasing the next flow there,
/// and ids order by creation even when a later flow takes a lower slot.
using FlowId = std::uint64_t;

inline constexpr FlowId kInvalidFlow = 0;

/// Engine self-metrics, counted unconditionally (plain integer adds on
/// paths that already touch the same cache lines, so the cost is noise).
/// export_metrics() publishes them into an obs::MetricsRegistry.
struct EngineStats {
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t background_flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t flows_cancelled = 0;
  std::uint64_t heap_compactions = 0;
};

class Simulator {
 public:
  Simulator() = default;

  // Non-copyable: callbacks capture `this`.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time in seconds.
  double now() const { return now_; }

  /// Registers a shared resource with `capacity` in volume-units/second
  /// (> 0).  Returns its id.
  ResourceId add_resource(std::string name, double capacity);

  /// Schedules `callback` at absolute time `time`.  `time` may lag `now()`
  /// by at most a relative rounding tolerance (the event then fires at
  /// `now()`); anything further in the past throws InvalidArgument.
  void schedule_at(double time, Callback callback);

  /// Schedules `callback` `delay` seconds from now (delay >= 0).
  void schedule_after(double delay, Callback callback);

  /// Starts moving `volume` units through `resource`; `on_complete` fires
  /// when the last byte arrives.  Zero volume completes at the current
  /// time (via a zero-delay event; such degenerate flows return
  /// kInvalidFlow and cannot be cancelled).  If `on_cancel` is provided it
  /// fires — with the not-yet-moved volume — when the flow is removed via
  /// cancel_flow(); exactly one of the two callbacks ever runs.
  FlowId start_flow(ResourceId resource, double volume, Callback on_complete,
                    CancelCallback on_cancel = nullptr);

  /// Starts a flow that never completes but takes a fair share of
  /// `resource` until cancel_flow() — a contention injector.
  FlowId start_background_flow(ResourceId resource);

  /// Removes a flow (finite or background).  A cancelled finite flow's
  /// `on_complete` never fires; its `on_cancel` (when provided) fires
  /// immediately with the remaining volume, and the volume it already
  /// moved stays credited to completed_volume().  Unknown ids are ignored
  /// (the flow may have already completed).
  void cancel_flow(FlowId flow);

  /// Runs until no timed events remain and no finite flows are active.
  /// Background flows do not keep the simulation alive.  Throws
  /// InternalError if time would exceed `time_limit`.
  void run(double time_limit = std::numeric_limits<double>::infinity());

  /// Advances past the next event.  Returns false when nothing remains.
  bool step();

  /// Total volume that has completed per resource (for utilization
  /// checks).  Includes the partial volume moved by cancelled flows.
  double completed_volume(ResourceId resource) const;

  /// Time during which `resource` had at least one finite flow in flight.
  double busy_seconds(ResourceId resource) const;

  /// completed_volume / (capacity * busy_seconds): 1.0 when the resource
  /// was saturated whenever busy (no background flows stealing shares);
  /// 0 when never busy.
  double utilization(ResourceId resource) const;

  /// Introspection for tests/benchmarks: high-water slot count of the
  /// event-callback slab.  Stays bounded by the peak number of *pending*
  /// events, not the total number ever scheduled.
  std::size_t event_payload_slots() const { return events_payload_.size(); }

  /// Introspection for tests/benchmarks: flows currently registered
  /// (finite + background, across all resources).
  std::size_t live_flows() const {
    return flow_slots_.size() - free_flow_slots_.size();
  }

  // --- Observation ------------------------------------------------------------
  /// Attaches a shared-resource sampler: existing resources are
  /// registered with it immediately, later add_resource() calls keep it
  /// in sync, and every advance records one interval per
  /// resource that had flows.  The probe observes state the engine has
  /// already computed, so event order and results are identical with or
  /// without it.  Pass nullptr to detach.  The probe must outlive the
  /// simulator (or be detached first).
  void attach_probe(obs::ResourceProbe* probe);

  /// Publishes the engine self-metrics into `registry` under "engine.*":
  /// adds the EngineStats counts to its counters and sets gauges for the
  /// event-slab high-water mark and currently live flows.  Call once per
  /// run; each call adds the counts again.
  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  /// Registry entry for one live flow; stored in a slab, slots reused.
  struct FlowState {
    FlowId id = kInvalidFlow;  // kInvalidFlow marks a free slot
    ResourceId resource = 0;
    double volume = 0.0;
    /// Virtual-service reading at which this finite flow completes.
    double finish_virtual = 0.0;
    bool background = false;
    Callback on_complete;
    CancelCallback on_cancel;
  };

  /// Min-heap node: finite flows ordered by required virtual service,
  /// ties broken by flow id (= creation order).  Cancelled flows leave
  /// stale nodes that are pruned lazily (the id's slot holds another id).
  struct FlowHeapEntry {
    double finish_virtual = 0.0;
    FlowId id = kInvalidFlow;
  };
  struct FlowHeapLater {
    bool operator()(const FlowHeapEntry& a, const FlowHeapEntry& b) const {
      if (a.finish_virtual != b.finish_virtual)
        return a.finish_virtual > b.finish_virtual;
      return a.id > b.id;
    }
  };

  struct Resource {
    std::string name;
    double capacity = 0.0;
    /// Cumulative per-flow service delivered since creation (volume
    /// units); advances at capacity / active_flows per second.
    double virtual_time = 0.0;
    int flow_count = 0;    // finite + background
    int finite_count = 0;  // finite only
    /// Min-heap of live finite flows plus stale (cancelled) leftovers.
    std::vector<FlowHeapEntry> heap;
    int stale_heap_entries = 0;
    double completed_volume = 0.0;
    double busy_seconds = 0.0;

    /// Per-flow rate under equal sharing; 0 when no flows.
    double share_rate() const {
      return flow_count == 0 ? 0.0
                             : capacity / static_cast<double>(flow_count);
    }
  };

  struct TimedEvent {
    double time = 0.0;
    std::uint64_t sequence = 0;  // tie-break: insertion order
    // Index into events_payload_ to keep the heap nodes cheap to move.
    std::size_t payload = 0;

    bool operator>(const TimedEvent& other) const {
      if (time != other.time) return time > other.time;
      return sequence > other.sequence;
    }
  };

  Resource& resource_ref(ResourceId id);
  const Resource& resource_ref(ResourceId id) const;

  static std::uint32_t flow_slot(FlowId id) {
    return static_cast<std::uint32_t>(id);
  }
  /// Takes a free slot and stamps it with the next id.
  FlowState& alloc_flow();
  void free_flow_slot(std::uint32_t slot);
  /// True when a heap node still refers to a live flow.
  bool heap_entry_live(const FlowHeapEntry& entry) const {
    return flow_slots_[flow_slot(entry.id)].id == entry.id;
  }
  /// Pops cancelled leftovers off the heap top.
  void prune_heap_top(Resource& r);
  /// Rebuilds a heap dominated by stale nodes (amortized O(1) per cancel).
  void maybe_compact_heap(Resource& r);
  /// Time until the first finite flow on `r` completes; +inf when none.
  double next_completion_dt(Resource& r);

  /// Moves time forward by dt, advancing each resource's virtual service.
  void advance(double dt);
  /// Fires completions for flows whose required service has been reached.
  void complete_finished_flows();

  double now_ = 0.0;
  EngineStats stats_;
  obs::ResourceProbe* probe_ = nullptr;
  std::uint64_t next_flow_serial_ = 1;
  std::uint64_t next_sequence_ = 0;
  std::vector<Resource> resources_;
  std::priority_queue<TimedEvent, std::vector<TimedEvent>,
                      std::greater<TimedEvent>>
      events_;
  // Event-callback slab + free-list: popped slots are reused, so storage
  // is bounded by the peak number of simultaneously pending events.
  std::vector<Callback> events_payload_;
  std::vector<std::size_t> free_event_slots_;
  // Flow registry slab + free-list; a FlowId names its slot.
  std::vector<FlowState> flow_slots_;
  std::vector<std::uint32_t> free_flow_slots_;
  // Callback batch of complete_finished_flows(), kept between steps so
  // its capacity is reused.
  std::vector<Callback> completion_batch_;
};

}  // namespace wfr::sim

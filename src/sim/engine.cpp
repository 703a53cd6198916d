#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>

#include "obs/probe.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace wfr::sim {

namespace {
// Completion threshold: volumes are bytes (up to ~1e16), so anything below
// a micro-byte of residue is floating-point drift, not real work.  The
// relative term keeps the threshold above one ulp of the virtual-service
// accumulator on very long runs, where an absolute epsilon alone could
// leave a flow stuck one rounding error short of its finish line.
constexpr double kResidueEpsilon = 1e-6;
constexpr double kRelativeResidue = 1e-12;

double completion_tolerance(double virtual_time) {
  return kResidueEpsilon + kRelativeResidue * virtual_time;
}

// Scheduling in the past is tolerated up to a *relative* rounding slack:
// at large simulated times (now ~ 1e9 s) one ulp of `now` dwarfs any
// absolute epsilon, and a caller-computed `now + dt` can legitimately
// round below `now`.
constexpr double kPastTolerance = 1e-12;
}  // namespace

ResourceId Simulator::add_resource(std::string name, double capacity) {
  util::require(capacity > 0.0, "resource capacity must be > 0 for '%s'",
                name.c_str());
  Resource r;
  r.name = std::move(name);
  r.capacity = capacity;
  resources_.push_back(std::move(r));
  const auto id = static_cast<ResourceId>(resources_.size() - 1);
  if (probe_ != nullptr)
    probe_->register_resource(id, resources_.back().name, capacity);
  return id;
}

void Simulator::attach_probe(obs::ResourceProbe* probe) {
  probe_ = probe;
  if (probe_ == nullptr) return;
  for (std::size_t i = 0; i < resources_.size(); ++i) {
    probe_->register_resource(static_cast<ResourceId>(i),
                              resources_[i].name, resources_[i].capacity);
  }
}

void Simulator::export_metrics(obs::MetricsRegistry& registry) const {
  const auto add = [&registry](const char* name, std::uint64_t value) {
    registry.counter(name).increment(value);
  };
  add("engine.events_scheduled", stats_.events_scheduled);
  add("engine.events_processed", stats_.events_processed);
  add("engine.flows_started", stats_.flows_started);
  add("engine.background_flows_started", stats_.background_flows_started);
  add("engine.flows_completed", stats_.flows_completed);
  add("engine.flows_cancelled", stats_.flows_cancelled);
  add("engine.heap_compactions", stats_.heap_compactions);
  registry.gauge("engine.event_payload_slots")
      .set(static_cast<double>(event_payload_slots()));
  registry.gauge("engine.live_flows")
      .set(static_cast<double>(live_flows()));
  registry.gauge("engine.now_seconds").set(now_);
}

void Simulator::schedule_at(double time, Callback callback) {
  const double tolerance =
      kPastTolerance * std::max(1.0, std::abs(now_));
  util::require(time >= now_ - tolerance,
                "cannot schedule in the past (%g < %g)", time, now_);
  std::size_t slot;
  if (!free_event_slots_.empty()) {
    slot = free_event_slots_.back();
    free_event_slots_.pop_back();
    events_payload_[slot] = std::move(callback);
  } else {
    events_payload_.push_back(std::move(callback));
    slot = events_payload_.size() - 1;
  }
  events_.push(TimedEvent{std::max(time, now_), next_sequence_++, slot});
  ++stats_.events_scheduled;
}

void Simulator::schedule_after(double delay, Callback callback) {
  util::require(delay >= 0.0, "delay must be >= 0");
  schedule_at(now_ + delay, std::move(callback));
}

Simulator::FlowState& Simulator::alloc_flow() {
  // The serial fills the id's high 32 bits.  Every slot was opened by a
  // flow, so bounding the serial also keeps each slot within 32 bits.
  util::ensure(next_flow_serial_ <= std::numeric_limits<std::uint32_t>::max(),
               "flow id serial exhausted after %llu flows",
               static_cast<unsigned long long>(next_flow_serial_ - 1));
  std::uint32_t slot = static_cast<std::uint32_t>(flow_slots_.size());
  if (!free_flow_slots_.empty()) {
    slot = free_flow_slots_.back();
    free_flow_slots_.pop_back();
  } else {
    flow_slots_.emplace_back();
  }
  FlowState& st = flow_slots_[slot];
  st.id = (next_flow_serial_++ << 32) | slot;
  return st;
}

void Simulator::free_flow_slot(std::uint32_t slot) {
  FlowState& st = flow_slots_[slot];
  st.id = kInvalidFlow;
  st.on_complete = nullptr;
  st.on_cancel = nullptr;
  free_flow_slots_.push_back(slot);
}

FlowId Simulator::start_flow(ResourceId resource, double volume,
                             Callback on_complete, CancelCallback on_cancel) {
  util::require(volume >= 0.0, "flow volume must be >= 0");
  if (volume <= kResidueEpsilon) {
    // Degenerate flow: complete "now" via the event queue so that callback
    // ordering stays deterministic.
    schedule_after(0.0, std::move(on_complete));
    return kInvalidFlow;
  }
  Resource& r = resource_ref(resource);
  FlowState& st = alloc_flow();
  st.resource = resource;
  st.volume = volume;
  st.finish_virtual = r.virtual_time + volume;
  st.background = false;
  st.on_complete = std::move(on_complete);
  st.on_cancel = std::move(on_cancel);
  ++r.flow_count;
  ++r.finite_count;
  r.heap.push_back(FlowHeapEntry{st.finish_virtual, st.id});
  std::push_heap(r.heap.begin(), r.heap.end(), FlowHeapLater{});
  ++stats_.flows_started;
  return st.id;
}

FlowId Simulator::start_background_flow(ResourceId resource) {
  Resource& r = resource_ref(resource);
  FlowState& st = alloc_flow();
  st.resource = resource;
  st.volume = std::numeric_limits<double>::infinity();
  st.finish_virtual = std::numeric_limits<double>::infinity();
  st.background = true;
  ++r.flow_count;
  ++stats_.background_flows_started;
  return st.id;
}

void Simulator::cancel_flow(FlowId flow) {
  // A free slot holds kInvalidFlow, so that id is turned away first.  A
  // finished flow's id, or a made-up one, then fails the match: its slot
  // is free, out of range or holds a later serial.
  if (flow == kInvalidFlow) return;
  const std::uint32_t slot = flow_slot(flow);
  if (slot >= flow_slots_.size() || flow_slots_[slot].id != flow) return;
  FlowState& st = flow_slots_[slot];
  Resource& r = resources_[st.resource];
  --r.flow_count;
  double remaining = 0.0;
  const bool background = st.background;
  if (!background) {
    --r.finite_count;
    ++r.stale_heap_entries;  // its heap node is pruned lazily
    remaining = std::clamp(st.finish_virtual - r.virtual_time, 0.0,
                           st.volume);
  }
  CancelCallback on_cancel = std::move(st.on_cancel);
  free_flow_slot(slot);
  maybe_compact_heap(r);
  ++stats_.flows_cancelled;
  // Fired last: the engine is in a consistent state, so the callback may
  // start flows or schedule events.
  if (!background && on_cancel) on_cancel(remaining);
}

void Simulator::prune_heap_top(Resource& r) {
  while (!r.heap.empty() && !heap_entry_live(r.heap.front())) {
    std::pop_heap(r.heap.begin(), r.heap.end(), FlowHeapLater{});
    r.heap.pop_back();
    --r.stale_heap_entries;
  }
}

void Simulator::maybe_compact_heap(Resource& r) {
  // Rebuild once stale nodes dominate; each cancel adds one stale node,
  // so the O(live + stale) rebuild amortizes to O(1) per cancellation.
  if (r.stale_heap_entries <= 64 ||
      r.stale_heap_entries <= static_cast<int>(r.heap.size()) / 2)
    return;
  std::erase_if(r.heap, [this](const FlowHeapEntry& entry) {
    return !heap_entry_live(entry);
  });
  std::make_heap(r.heap.begin(), r.heap.end(), FlowHeapLater{});
  r.stale_heap_entries = 0;
  ++stats_.heap_compactions;
}

double Simulator::next_completion_dt(Resource& r) {
  prune_heap_top(r);
  if (r.heap.empty()) return std::numeric_limits<double>::infinity();
  const double remaining = r.heap.front().finish_virtual - r.virtual_time;
  if (remaining <= completion_tolerance(r.virtual_time)) return 0.0;
  return remaining / r.share_rate();
}

void Simulator::advance(double dt) {
  util::ensure(dt >= 0.0, "simulator attempted to move time backwards");
  if (dt <= 0.0) return;
  for (std::size_t i = 0; i < resources_.size(); ++i) {
    Resource& r = resources_[i];
    if (r.flow_count == 0) continue;
    const double rate = r.share_rate();
    r.virtual_time += rate * dt;
    double delivered = 0.0;
    if (r.finite_count > 0) {
      r.busy_seconds += dt;
      delivered = rate * dt * static_cast<double>(r.finite_count);
      r.completed_volume += delivered;
    }
    if (probe_ != nullptr) {
      probe_->record(static_cast<ResourceId>(i), now_, dt, r.flow_count,
                     r.finite_count, rate, delivered);
    }
  }
  now_ += dt;
}

void Simulator::complete_finished_flows() {
  // Collect finished flows first; callbacks may add flows/events.  Within
  // a resource the heap pops in (required service, flow id) order, so
  // simultaneous completions fire in flow creation order.  The batch
  // reuses completion_batch_'s storage, moved out while the callbacks run
  // so that a callback which steps the engine gets a batch of its own.
  std::vector<Callback> callbacks = std::move(completion_batch_);
  for (Resource& r : resources_) {
    const double tolerance = completion_tolerance(r.virtual_time);
    for (;;) {
      prune_heap_top(r);
      if (r.heap.empty()) break;
      const FlowHeapEntry top = r.heap.front();
      if (top.finish_virtual - r.virtual_time > tolerance) break;
      std::pop_heap(r.heap.begin(), r.heap.end(), FlowHeapLater{});
      r.heap.pop_back();
      const std::uint32_t slot = flow_slot(top.id);
      callbacks.push_back(std::move(flow_slots_[slot].on_complete));
      --r.flow_count;
      --r.finite_count;
      ++stats_.flows_completed;
      free_flow_slot(slot);
    }
  }
  for (Callback& cb : callbacks)
    if (cb) cb();
  callbacks.clear();
  completion_batch_ = std::move(callbacks);
}

bool Simulator::step() {
  const double dt_event = events_.empty()
                              ? std::numeric_limits<double>::infinity()
                              : events_.top().time - now_;
  double dt_flow = std::numeric_limits<double>::infinity();
  for (Resource& r : resources_)
    dt_flow = std::min(dt_flow, next_completion_dt(r));

  if (!std::isfinite(dt_event) && !std::isfinite(dt_flow)) return false;

  if (dt_event <= dt_flow) {
    advance(std::max(dt_event, 0.0));
    const TimedEvent ev = events_.top();
    events_.pop();
    Callback cb = std::move(events_payload_[ev.payload]);
    events_payload_[ev.payload] = nullptr;
    free_event_slots_.push_back(ev.payload);
    ++stats_.events_processed;
    if (cb) cb();
  } else {
    advance(dt_flow);
    complete_finished_flows();
  }
  return true;
}

void Simulator::run(double time_limit) {
  while (step()) {
    util::ensure(now_ <= time_limit,
                 "simulation exceeded time limit (%g s)", time_limit);
  }
}

double Simulator::completed_volume(ResourceId resource) const {
  return resource_ref(resource).completed_volume;
}

double Simulator::busy_seconds(ResourceId resource) const {
  return resource_ref(resource).busy_seconds;
}

double Simulator::utilization(ResourceId resource) const {
  const Resource& r = resource_ref(resource);
  if (r.busy_seconds <= 0.0) return 0.0;
  return r.completed_volume / (r.capacity * r.busy_seconds);
}

Simulator::Resource& Simulator::resource_ref(ResourceId id) {
  if (id >= resources_.size())
    throw util::NotFound(util::format("resource id %u out of range", id));
  return resources_[id];
}

const Simulator::Resource& Simulator::resource_ref(ResourceId id) const {
  if (id >= resources_.size())
    throw util::NotFound(util::format("resource id %u out of range", id));
  return resources_[id];
}

}  // namespace wfr::sim

#include "obs/tracer.hpp"

#include <chrono>

#include "obs/trace_event.hpp"
#include "util/error.hpp"

namespace wfr::obs {

namespace {

/// Small stable per-thread slot for the Trace Event "tid" track.
std::atomic<std::uint32_t> g_thread_slots{0};
std::uint32_t thread_slot() {
  thread_local const std::uint32_t slot =
      g_thread_slots.fetch_add(1, std::memory_order_relaxed) + 1;
  return slot;
}

/// The per-thread open-trace context.  Only one tracer may have a trace
/// open on a thread at a time; spans for a foreign tracer that would nest
/// inside it are dropped (they cannot be parented coherently).
struct ThreadTraceState {
  Tracer* owner = nullptr;
  std::uint64_t trace_id = 0;
  std::uint64_t current_parent = 0;
  int depth = 0;
  std::vector<TraceSpan> pending;
};

ThreadTraceState& tls_state() {
  thread_local ThreadTraceState state;
  return state;
}

}  // namespace

SpanScope::SpanScope(Tracer* tracer, std::string_view name,
                     std::string_view category)
    : SpanScope(tracer, name, category,
                tracer != nullptr && tracer->enabled() ? Tracer::now_ns()
                                                       : 0) {}

SpanScope::SpanScope(Tracer* tracer, std::string_view name,
                     std::string_view category, std::uint64_t begin_ns) {
  if (tracer == nullptr || !tracer->enabled()) return;
  ThreadTraceState& state = tls_state();
  if (state.depth > 0 && state.owner != tracer) return;  // foreign nesting
  tracer_ = tracer;
  if (state.depth == 0) {
    state.owner = tracer;
    state.trace_id = tracer->next_trace_id();
    state.current_parent = 0;
    state.pending.clear();
  }
  ++state.depth;
  span_.trace_id = state.trace_id;
  span_.span_id = tracer->next_span_id();
  span_.parent_id = state.current_parent;
  previous_parent_ = state.current_parent;
  state.current_parent = span_.span_id;
  span_.name.assign(name);
  span_.category.assign(category);
  span_.begin_ns = begin_ns;
  span_.thread = thread_slot();
}

SpanScope::SpanScope(Tracer* tracer, std::string_view name,
                     std::string_view category, TraceRef remote_parent) {
  if (tracer == nullptr || !tracer->enabled()) return;
  ThreadTraceState& state = tls_state();
  if (state.depth > 0) {
    // A trace is already open here: ignore the remote ref and nest
    // normally (foreign-tracer nesting stays dropped, as ever).
    if (state.owner != tracer) return;
  } else {
    if (!remote_parent.valid()) return;  // nothing to continue
    state.owner = tracer;
    state.trace_id = remote_parent.trace_id;
    state.current_parent = remote_parent.span_id;
    state.pending.clear();
  }
  tracer_ = tracer;
  ++state.depth;
  span_.trace_id = state.trace_id;
  span_.span_id = tracer->next_span_id();
  span_.parent_id = state.current_parent;
  previous_parent_ = state.current_parent;
  state.current_parent = span_.span_id;
  span_.name.assign(name);
  span_.category.assign(category);
  span_.begin_ns = Tracer::now_ns();
  span_.thread = thread_slot();
}

SpanScope::~SpanScope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = Tracer::now_ns();
  ThreadTraceState& state = tls_state();
  state.current_parent = previous_parent_;
  state.pending.push_back(std::move(span_));
  if (--state.depth == 0) {
    tracer_->flush(state.pending);
    state.owner = nullptr;
  }
}

void SpanScope::arg(std::string_view key, std::string value) {
  if (tracer_ == nullptr) return;
  span_.args.emplace_back(std::string(key), std::move(value));
}

Tracer::Tracer(TracerOptions options) : options_(options) {
  util::require(options_.capacity >= 1, "tracer capacity must be >= 1");
}

std::uint32_t Tracer::current_thread_slot() { return thread_slot(); }

std::uint64_t Tracer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TraceRef Tracer::begin_trace() {
  if (!options_.enabled) return {};
  TraceRef ref;
  ref.trace_id = next_trace_id();
  ref.span_id = next_span_id();
  return ref;
}

void Tracer::record_batch(std::vector<TraceSpan> batch) {
  if (!options_.enabled || batch.empty()) return;
  const std::uint32_t slot = thread_slot();
  for (TraceSpan& span : batch)
    if (span.thread == 0) span.thread = slot;
  flush(batch);
}

void Tracer::flush(std::vector<TraceSpan>& batch) {
  if (batch.empty()) return;
  std::unique_lock<std::mutex> lock(mutex_);
  for (TraceSpan& span : batch) {
    // Grow on demand, so a lightly used tracer holds only what it
    // recorded; once full, overwrite the oldest slot.
    if (ring_.size() < options_.capacity) {
      ring_.push_back(std::move(span));
    } else {
      ring_[head_] = std::move(span);
      head_ = (head_ + 1) % options_.capacity;
      ++evicted_;
    }
    ++recorded_;
  }
  batch.clear();
}

Tracer::Stats Tracer::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  Stats stats;
  stats.spans_recorded = recorded_;
  stats.spans_evicted = evicted_;
  stats.traces_started = trace_ids_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<TraceSpan> Tracer::snapshot(std::size_t last) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::size_t size = ring_.size();
  const std::size_t take = (last == 0 || last > size) ? size : last;
  std::vector<TraceSpan> spans;
  spans.reserve(take);
  for (std::size_t i = size - take; i < size; ++i)
    spans.push_back(ring_[(head_ + i) % size]);
  return spans;
}

util::Json Tracer::trace_events_json(std::size_t last) const {
  const std::vector<TraceSpan> spans = snapshot(last);
  util::JsonArray events;
  events.push_back(trace_metadata_event(1, 0, "process_name", "wfr serve"));

  // One thread_name track per distinct slot present in the export.
  std::vector<std::uint32_t> threads;
  for (const TraceSpan& span : spans) {
    bool seen = false;
    for (const std::uint32_t t : threads) seen = seen || t == span.thread;
    if (!seen) threads.push_back(span.thread);
  }
  for (const std::uint32_t t : threads) {
    events.push_back(trace_metadata_event(
        1, static_cast<int>(t), "thread_name",
        "worker " + std::to_string(t)));
  }

  for (const TraceSpan& span : spans) {
    util::JsonObject args;
    args.set("trace", static_cast<double>(span.trace_id));
    args.set("span", static_cast<double>(span.span_id));
    args.set("parent", static_cast<double>(span.parent_id));
    for (const auto& [key, value] : span.args)
      args.set(key, util::Json(value));
    events.push_back(trace_complete_event(
        1, static_cast<int>(span.thread), span.name, span.category,
        static_cast<double>(span.begin_ns) * 1e-9,
        static_cast<double>(span.end_ns - span.begin_ns) * 1e-9,
        std::move(args)));
  }

  sort_trace_events(events);
  return trace_events_envelope(std::move(events));
}

}  // namespace wfr::obs

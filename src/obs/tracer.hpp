#pragma once
// Online request-scoped tracing for the serve/sweep hot path
// (docs/OBSERVABILITY.md).
//
// The offline Chrome-trace exporter (obs/chrome_trace.hpp) covers
// simulation runs; this tracer covers the live service: every request
// handled by serve::Server becomes one trace — a root "request" span with
// nested parse / handler / serialize / write children — and every
// streamed SweepRunner row evaluation becomes an "evaluate" span
// annotated with its scenario label.  Traces are exported in the same
// Trace Event format (obs/trace_event.hpp) as the offline exporter, so
// its tooling (chrome://tracing, ui.perfetto.dev, the CI validators)
// opens /debug/trace dumps unchanged.
//
// Hot-path design:
//   * Spans are buffered in a thread-local pending vector while a trace
//     is open on that thread; no lock is taken per span.  When the root
//     scope closes (one request, one scenario evaluation), the whole
//     batch moves into the shared ring under a single mutex acquisition —
//     one lock per request, not per span.
//   * The ring is bounded (TracerOptions::capacity): when full, the
//     oldest spans are evicted and counted (Stats::spans_evicted), so a
//     long-lived service holds a sliding window of recent traces in O(1)
//     memory.
//   * A disabled tracer (or a null Tracer*) costs one branch per scope —
//     no clock reads, no ids, no allocation.
//
// Determinism: trace ids, span ids, and timestamps are live values; the
// tracer must never feed response bodies.  /debug/trace and --trace-out
// are explicitly OUTSIDE the /v1 byte-identity contract (docs/SERVER.md).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace wfr::obs {

/// One closed span.  Timestamps are nanoseconds on the monotonic clock
/// (Tracer::now_ns); parent_id 0 marks a root span.
struct TraceSpan {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::string name;
  std::string category;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  /// Small per-thread slot (stable for a thread's lifetime) — the Trace
  /// Event "tid" track.
  std::uint32_t thread = 0;
  /// Free-form annotations (method, path, status, scenario label, ...).
  std::vector<std::pair<std::string, std::string>> args;
};

struct TracerOptions {
  /// Master switch: a disabled tracer records nothing and exports an
  /// empty trace.
  bool enabled = true;
  /// Spans retained in the ring; the oldest are evicted beyond this.
  /// Must be >= 1.
  std::size_t capacity = 16384;
};

/// A handle to a span in some trace — enough to parent further spans
/// under it from any thread.  The serve reactor carries one of these
/// through a request's loop-thread/pool-thread handoffs so the whole
/// lifecycle (parse on the event loop, handle on a pool worker, write
/// back on the loop) assembles into a single well-nested trace
/// (docs/OBSERVABILITY.md).  trace_id 0 means "no trace" (tracing
/// disabled).
struct TraceRef {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

class Tracer;

/// RAII span: begins on construction, is recorded into the owning
/// thread's pending buffer on destruction.  The first scope opened on a
/// thread starts a new trace; nested scopes become children.  Constructed
/// with a null or disabled tracer, every member is a no-op.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string_view name, std::string_view category);
  /// Explicit begin timestamp (a clock reading taken before the scope
  /// could be opened).
  SpanScope(Tracer* tracer, std::string_view name, std::string_view category,
            std::uint64_t begin_ns);
  /// Continues a trace started on another thread: the span is parented
  /// under `remote_parent` and nested scopes opened on this thread join
  /// the same trace.  Used by the serve reactor to nest pool-thread
  /// handler spans inside the request trace the event loop started.  With
  /// a trace already open on this thread, the remote parent is ignored
  /// and the scope nests normally; an invalid ref makes the scope inert.
  SpanScope(Tracer* tracer, std::string_view name, std::string_view category,
            TraceRef remote_parent);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Attaches an annotation to the span.
  void arg(std::string_view key, std::string value);

  /// True when this scope is actually recording.
  bool active() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_ = nullptr;
  TraceSpan span_;
  std::uint64_t previous_parent_ = 0;
};

/// The bounded span sink.  Thread-safe; one instance per App.
class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});

  bool enabled() const { return options_.enabled; }

  /// Nanoseconds on the monotonic clock (the span timestamp domain).
  static std::uint64_t now_ns();

  /// The calling thread's stable slot (the Trace Event "tid" track) — for
  /// stamping manually assembled spans with the thread they actually ran
  /// on before handing them to another thread's record_batch().
  static std::uint32_t current_thread_slot();

  /// Opens a trace whose spans will be assembled manually across threads
  /// (the reactor's request lifecycle): allocates a trace id plus the
  /// root span's id and counts the trace as started.  The caller builds
  /// TraceSpans itself — children via allocate_span_id() parented under
  /// the returned ref — and submits the finished set with record_batch().
  /// Returns an invalid ref when tracing is disabled.
  TraceRef begin_trace();

  /// A fresh span id for manual trace assembly (see begin_trace).
  std::uint64_t allocate_span_id() { return next_span_id(); }

  /// Moves manually assembled spans into the ring under one mutex
  /// acquisition — the per-request flush of the reactor's request traces.
  /// Spans must carry their trace/span/parent ids and timestamps; a span
  /// with thread 0 is stamped with the calling thread's slot.  No-op when
  /// disabled.
  void record_batch(std::vector<TraceSpan> batch);

  /// Lifetime totals (monotonic; readable while tracing).
  struct Stats {
    std::uint64_t spans_recorded = 0;  // spans that entered the ring
    std::uint64_t spans_evicted = 0;   // spans pushed out by capacity
    std::uint64_t traces_started = 0;  // root scopes opened
  };
  Stats stats() const;

  /// The newest `last` spans (oldest-first; everything when last == 0 or
  /// >= size).  A consistent snapshot under the ring mutex.
  std::vector<TraceSpan> snapshot(std::size_t last = 0) const;

  /// Trace Event JSON of snapshot(last): "M" process/thread metadata plus
  /// one "X" event per span with args {trace, span, parent, ...}.
  util::Json trace_events_json(std::size_t last = 0) const;

 private:
  friend class SpanScope;

  std::uint64_t next_trace_id() {
    return trace_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  std::uint64_t next_span_id() {
    return span_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Moves a completed batch into the ring (one lock per batch).
  void flush(std::vector<TraceSpan>& batch);

  TracerOptions options_;
  std::atomic<std::uint64_t> trace_ids_{0};
  std::atomic<std::uint64_t> span_ids_{0};
  mutable std::mutex mutex_;
  /// Ring storage, grown by push_back up to capacity: the i-th oldest span
  /// is ring_[(head_ + i) % ring_.size()]; head_ stays 0 until it wraps.
  std::vector<TraceSpan> ring_;
  std::size_t head_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace wfr::obs

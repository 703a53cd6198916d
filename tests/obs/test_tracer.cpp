// obs::Tracer + SpanScope: thread-local nesting, batch flush at root
// close, bounded-ring eviction, manual cross-thread trace assembly, and
// the Trace Event JSON export (docs/OBSERVABILITY.md).

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/tracer.hpp"
#include "util/json.hpp"

namespace wfr::obs {
namespace {

std::size_t count_complete(const util::Json& doc) {
  std::size_t complete = 0;
  for (const util::Json& event : doc.at("traceEvents").as_array())
    complete += event.at("ph").as_string() == "X";
  return complete;
}

TEST(TracerTest, NestedScopesShareOneTraceWithParentLinks) {
  Tracer tracer;
  {
    SpanScope root(&tracer, "request", "serve");
    EXPECT_TRUE(root.active());
    {
      SpanScope child(&tracer, "handle", "serve");
      SpanScope grandchild(&tracer, "evaluate", "sweep");
    }
    // Nothing is visible until the root scope closes and flushes.
    EXPECT_TRUE(tracer.snapshot().empty());
  }
  const std::vector<TraceSpan> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Children flush innermost-first; the root is last.
  const TraceSpan& grandchild = spans[0];
  const TraceSpan& child = spans[1];
  const TraceSpan& root = spans[2];
  EXPECT_EQ(root.name, "request");
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(child.parent_id, root.span_id);
  EXPECT_EQ(grandchild.parent_id, child.span_id);
  EXPECT_NE(root.trace_id, 0u);
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_EQ(grandchild.trace_id, root.trace_id);
  EXPECT_GE(child.begin_ns, root.begin_ns);
  EXPECT_LE(child.end_ns, root.end_ns);
  EXPECT_EQ(tracer.stats().spans_recorded, 3u);
  EXPECT_EQ(tracer.stats().spans_evicted, 0u);
}

TEST(TracerTest, SequentialRootsStartDistinctTraces) {
  Tracer tracer;
  { SpanScope a(&tracer, "one", "test"); }
  { SpanScope b(&tracer, "two", "test"); }
  const std::vector<TraceSpan> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].trace_id, spans[1].trace_id);
  EXPECT_EQ(tracer.stats().traces_started, 2u);
}

TEST(TracerTest, DisabledAndNullTracersAreInertScopes) {
  Tracer disabled(TracerOptions{false, 16});
  {
    SpanScope scope(&disabled, "request", "serve");
    EXPECT_FALSE(scope.active());
    scope.arg("k", "v");  // must be a no-op, not a crash
  }
  EXPECT_TRUE(disabled.snapshot().empty());
  EXPECT_EQ(disabled.stats().spans_recorded, 0u);
  {
    SpanScope scope(nullptr, "request", "serve");
    EXPECT_FALSE(scope.active());
  }
}

TEST(TracerTest, RingEvictsOldestAndCountsEvictions) {
  Tracer tracer(TracerOptions{true, 4});
  for (int i = 0; i < 10; ++i)
    SpanScope(&tracer, "span" + std::to_string(i), "test");
  const std::vector<TraceSpan> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first within the window; the newest four survive.
  EXPECT_EQ(spans.front().name, "span6");
  EXPECT_EQ(spans.back().name, "span9");
  const Tracer::Stats stats = tracer.stats();
  EXPECT_EQ(stats.spans_recorded, 10u);
  EXPECT_EQ(stats.spans_evicted, 6u);
}

TEST(TracerTest, SnapshotLastTakesTheNewestSpans) {
  Tracer tracer;
  for (int i = 0; i < 5; ++i)
    SpanScope(&tracer, "span" + std::to_string(i), "test");
  const std::vector<TraceSpan> last2 = tracer.snapshot(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0].name, "span3");
  EXPECT_EQ(last2[1].name, "span4");
  EXPECT_EQ(tracer.snapshot(0).size(), 5u);
  EXPECT_EQ(tracer.snapshot(99).size(), 5u);
}

TEST(TracerTest, ArgsSurviveIntoTheExport) {
  Tracer tracer;
  {
    SpanScope scope(&tracer, "evaluate", "sweep");
    scope.arg("cache", "miss");
    scope.arg("scenario", "unit");
  }
  const util::Json doc = tracer.trace_events_json();
  bool found = false;
  for (const util::Json& event : doc.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() != "X") continue;
    const util::Json& args = event.at("args");
    EXPECT_EQ(args.at("cache").as_string(), "miss");
    EXPECT_EQ(args.at("scenario").as_string(), "unit");
    EXPECT_NE(args.at("trace").as_number(), 0.0);
    EXPECT_NE(args.at("span").as_number(), 0.0);
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TracerTest, ExportIsValidTraceEventEnvelope) {
  Tracer tracer;
  { SpanScope scope(&tracer, "request", "serve"); }
  const util::Json doc = tracer.trace_events_json();
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  bool saw_process_name = false;
  bool saw_thread_name = false;
  for (const util::Json& event : doc.at("traceEvents").as_array()) {
    const std::string ph = event.at("ph").as_string();
    if (ph == "M") {
      const std::string name = event.at("name").as_string();
      saw_process_name = saw_process_name || name == "process_name";
      saw_thread_name = saw_thread_name || name == "thread_name";
    }
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_thread_name);
  EXPECT_EQ(count_complete(doc), 1u);
}

TEST(TracerTest, ConcurrentThreadsFlushWithoutLossOrCrosstalk) {
  Tracer tracer(TracerOptions{true, 1 << 16});
  constexpr int kThreads = 4;
  constexpr int kTraces = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kTraces; ++i) {
        SpanScope root(&tracer, "request", "serve");
        SpanScope child(&tracer, "handle", "serve");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::vector<TraceSpan> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(),
            static_cast<std::size_t>(kThreads) * kTraces * 2);
  // Every child's parent must be the root of the SAME trace: thread-local
  // nesting may never cross threads.
  std::map<std::uint64_t, std::uint64_t> root_by_trace;
  for (const TraceSpan& span : spans)
    if (span.parent_id == 0) root_by_trace[span.trace_id] = span.span_id;
  for (const TraceSpan& span : spans) {
    if (span.parent_id == 0) continue;
    ASSERT_TRUE(root_by_trace.count(span.trace_id));
    EXPECT_EQ(span.parent_id, root_by_trace[span.trace_id]);
  }
  EXPECT_EQ(tracer.stats().traces_started,
            static_cast<std::uint64_t>(kThreads) * kTraces);
}

TEST(TracerTest, BeginTraceAllocatesIdsAndCountsTheTrace) {
  Tracer tracer;
  const TraceRef ref = tracer.begin_trace();
  EXPECT_TRUE(ref.valid());
  EXPECT_NE(ref.trace_id, 0u);
  EXPECT_NE(ref.span_id, 0u);
  EXPECT_EQ(tracer.stats().traces_started, 1u);

  const TraceRef next = tracer.begin_trace();
  EXPECT_NE(next.trace_id, ref.trace_id);
  EXPECT_NE(next.span_id, ref.span_id);
}

TEST(TracerTest, BeginTraceOnDisabledTracerIsInvalid) {
  Tracer tracer(TracerOptions{/*enabled=*/false, /*capacity=*/16});
  EXPECT_FALSE(tracer.begin_trace().valid());
  tracer.record_batch({TraceSpan{}});
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(TracerTest, RecordBatchFlushesAndStampsUnsetThreadSlots) {
  Tracer tracer;
  const TraceRef ref = tracer.begin_trace();

  std::vector<TraceSpan> batch;
  TraceSpan child;
  child.trace_id = ref.trace_id;
  child.span_id = tracer.allocate_span_id();
  child.parent_id = ref.span_id;
  child.name = "parse";
  child.begin_ns = 10;
  child.end_ns = 20;
  batch.push_back(child);
  TraceSpan stamped = child;
  stamped.span_id = tracer.allocate_span_id();
  stamped.name = "queue_wait";
  stamped.thread = Tracer::current_thread_slot() + 100;  // pre-stamped
  batch.push_back(stamped);
  TraceSpan root;
  root.trace_id = ref.trace_id;
  root.span_id = ref.span_id;
  root.name = "request";
  root.begin_ns = 0;
  root.end_ns = 30;
  batch.push_back(root);

  tracer.record_batch(std::move(batch));
  const std::vector<TraceSpan> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Manually assembled spans parent under the begin_trace root.
  EXPECT_EQ(spans[0].parent_id, ref.span_id);
  EXPECT_EQ(spans[2].span_id, ref.span_id);
  EXPECT_EQ(spans[2].parent_id, 0u);
  // thread==0 spans get the flushing thread's slot; pre-stamped ones keep
  // the slot the work actually ran on.
  EXPECT_EQ(spans[0].thread, Tracer::current_thread_slot());
  EXPECT_EQ(spans[1].thread, Tracer::current_thread_slot() + 100);
}

TEST(TracerTest, RemoteParentScopeContinuesATraceAcrossThreads) {
  // The serve reactor handoff: the loop begins the trace, a pool thread
  // opens the "handle" scope under the remote root, and nested scopes on
  // that thread join the same trace.
  Tracer tracer;
  const TraceRef ref = tracer.begin_trace();

  std::thread pool_thread([&tracer, ref] {
    SpanScope handle(&tracer, "handle", "serve", ref);
    EXPECT_TRUE(handle.active());
    SpanScope endpoint(&tracer, "v1_roofline", "app");
  });
  pool_thread.join();

  const std::vector<TraceSpan> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);  // root not recorded yet — only the subtree
  const TraceSpan& endpoint = spans[0];
  const TraceSpan& handle = spans[1];
  EXPECT_EQ(handle.name, "handle");
  EXPECT_EQ(handle.trace_id, ref.trace_id);
  EXPECT_EQ(endpoint.trace_id, ref.trace_id);
  EXPECT_EQ(handle.parent_id, ref.span_id);
  EXPECT_EQ(endpoint.parent_id, handle.span_id);
  // No extra trace was started by the continuation.
  EXPECT_EQ(tracer.stats().traces_started, 1u);
}

TEST(TracerTest, RemoteParentScopeWithInvalidRefIsInert) {
  Tracer tracer;
  SpanScope scope(&tracer, "handle", "serve", TraceRef{});
  EXPECT_FALSE(scope.active());
}

}  // namespace
}  // namespace wfr::obs

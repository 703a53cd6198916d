#pragma once
// The wfr service application: HTTP handlers that put the Workflow
// Roofline model behind queryable endpoints (docs/SERVER.md).
//
// Endpoints (registered by bind()):
//   POST /v1/roofline  system + workflow characterization JSON in;
//                      ceilings, parallelism wall, binding-ceiling
//                      classification, and the measured operating point
//                      out.
//   POST /v1/import    WfCommons/WfBench workflow instance JSON in (bare
//                      or wrapped as {"workflow": ..., "system": ...});
//                      the imported DAG, its characterization, and — when
//                      a "system" is supplied — the resulting roofline
//                      out.
//   POST /v1/sweep     parameter grid in; one evaluated point per grid
//                      cell out, as JSON rows or NDJSON
//                      (?format=ndjson or "format" in the body).  All
//                      requests share one SweepRunner and its pool.
//   GET|POST /v1/svg   roofline render (image/svg+xml); GET takes query
//                      parameters, POST the /v1/roofline body.
//   GET /healthz       liveness probe ("ok").
//   GET /metrics       Prometheus text exposition: per-endpoint request
//                      counters, exact-percentile latency telemetry
//                      (p50/p95/p99/p99.9 gauges + log-bucketed
//                      histograms), connection counters, and tracer
//                      stats.
//   GET /debug/trace   the newest retained request/sweep spans as Chrome
//                      Trace Event JSON (?last=N; docs/OBSERVABILITY.md).
//
// Determinism: every /v1 handler is a pure function of the request, so
// identical request bodies produce byte-identical response bodies at any
// worker count.  /healthz is constant; /metrics and /debug/* are live
// views and are exempt from the byte-identity contract.
//
// Hot-path observation is lock-free: endpoints are pre-registered at
// construction as atomic counters plus an obs::LogHistogram each, so
// concurrent workers record telemetry without a shared mutex (that lock
// now exists only inside the /metrics scrape, where the atomics fold
// into the registry with delta semantics).
//
// Handlers map domain errors to statuses: malformed JSON / bad values to
// 400, unknown presets to 400, oversized grids to 400; anything escaping
// a handler becomes the Server's deterministic 500.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "exec/sweep.hpp"
#include "obs/log_histogram.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "serve/server.hpp"
#include "util/http.hpp"

namespace wfr::serve {

struct AppOptions {
  /// Worker threads of the shared SweepRunner pool (0 = resolve_jobs()).
  /// Independent of the server's connection workers, so sweep results
  /// stay deterministic regardless of how many connections are served.
  int sweep_jobs = 0;
  /// Reject grids whose cross product exceeds this many points (400).
  std::size_t max_sweep_points = 10000;
  /// Master switch for the request/sweep tracer behind /debug/trace and
  /// --trace-out.  Disabled, every span site costs one branch.
  bool trace_enabled = true;
  /// Spans retained by the tracer ring; the oldest are evicted beyond
  /// this (Tracer::Stats counts evictions).
  std::size_t trace_capacity = 16384;
};

class App {
 public:
  explicit App(AppOptions options = {});

  /// Registers every endpoint on `server` and attaches its connection
  /// counters to /metrics.
  void bind(Server& server);

  /// Raw-bytes entry points (tests/fuzz): build the HttpRequest a client
  /// would have sent and run the full observed() handler path, so fuzzing
  /// and corpus replay exercise exactly the production code — including
  /// the domain-error-to-400 mapping.
  util::HttpResponse roofline_from_bytes(std::string_view body);
  util::HttpResponse import_from_bytes(std::string_view body);
  util::HttpResponse sweep_from_bytes(std::string_view body,
                                      std::string_view query = {});

  // Handlers are public so tests can exercise them without sockets.
  util::HttpResponse handle_roofline(const util::HttpRequest& request);
  util::HttpResponse handle_import(const util::HttpRequest& request);
  util::HttpResponse handle_sweep(const util::HttpRequest& request);
  util::HttpResponse handle_svg(const util::HttpRequest& request);
  util::HttpResponse handle_healthz(const util::HttpRequest& request);
  util::HttpResponse handle_metrics(const util::HttpRequest& request);
  util::HttpResponse handle_trace(const util::HttpRequest& request);

  /// The app's span sink (request lifecycle + sweep evaluations).
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

  /// Writes the newest `last` retained spans (0 = all) as Trace Event
  /// JSON to `path` — the `wfr serve --trace-out` dump.
  void write_trace(const std::string& path, std::size_t last = 0) const;

  /// One-line per-endpoint latency summary (count, p50, p99) for the
  /// drain message; "no requests" when nothing was served.
  std::string drain_summary() const;

 private:
  /// Pre-registered lock-free telemetry for one endpoint: the hot path
  /// is two relaxed atomic increments plus one lock-free histogram
  /// record — no shared mutex.
  struct EndpointMetrics {
    explicit EndpointMetrics(std::string endpoint_name)
        : name(std::move(endpoint_name)) {}
    std::string name;
    std::atomic<std::uint64_t> requests{0};
    obs::LogHistogram latency_seconds;
    /// Requests already folded into the registry counter (delta export;
    /// guarded by metrics_mutex_).
    std::uint64_t exported_requests = 0;
  };

  /// Wraps a handler with per-endpoint observation: counts the request,
  /// times it into the endpoint's latency histogram, opens a handler
  /// span, and maps domain errors (ParseError, InvalidArgument,
  /// NotFound) to a 400 response.
  util::HttpResponse observed(
      EndpointMetrics& endpoint,
      util::HttpResponse (App::*handler)(const util::HttpRequest&),
      const util::HttpRequest& request);

  AppOptions options_;
  exec::SweepRunner runner_;
  obs::Tracer tracer_;
  EndpointMetrics roofline_metrics_{"roofline"};
  EndpointMetrics import_metrics_{"import"};
  EndpointMetrics sweep_metrics_{"sweep"};
  EndpointMetrics svg_metrics_{"svg"};
  EndpointMetrics healthz_metrics_{"healthz"};
  EndpointMetrics metrics_metrics_{"metrics"};
  EndpointMetrics trace_metrics_{"trace"};
  const std::array<EndpointMetrics*, 7> endpoints_{
      &roofline_metrics_, &import_metrics_,  &sweep_metrics_,
      &svg_metrics_,      &healthz_metrics_, &metrics_metrics_,
      &trace_metrics_};
  std::atomic<std::uint64_t> responses_2xx_{0};
  std::atomic<std::uint64_t> responses_4xx_{0};
  std::atomic<std::uint64_t> responses_5xx_{0};
  /// Guards only the /metrics scrape (registry fold + exported_* delta
  /// state); never taken on the request hot path.
  std::mutex metrics_mutex_;
  std::uint64_t exported_2xx_ = 0;
  std::uint64_t exported_4xx_ = 0;
  std::uint64_t exported_5xx_ = 0;
  obs::MetricsRegistry registry_;
  const Server* server_ = nullptr;
};

}  // namespace wfr::serve

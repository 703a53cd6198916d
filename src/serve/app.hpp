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
//   GET /metrics       Prometheus text exposition of the app's metrics
//                      registry: per-endpoint request counters,
//                      exact-percentile latency telemetry (log-bucketed
//                      histograms + p50/p95/p99/p99.9 gauges), connection
//                      counters, and tracer stats.
//   GET /debug/trace   the newest retained request/sweep spans as Chrome
//                      Trace Event JSON (?last=N; docs/OBSERVABILITY.md).
//
// Determinism: every /v1 handler is a pure function of the request, so
// identical request bodies produce byte-identical response bodies at any
// worker count.  /healthz is constant; /metrics and /debug/* are live
// views and are exempt from the byte-identity contract.
//
// Hot-path observation is lock-free: every endpoint's request counter and
// latency histogram is registered in the app's obs::MetricsRegistry at
// construction, and observed() records into those references with three
// relaxed atomic updates.  /metrics renders the registry itself, so each
// series is exported exactly once.
//
// Handlers map domain errors to statuses: malformed JSON / bad values to
// 400, unknown presets to 400, oversized grids to 400; anything escaping
// a handler becomes the Server's deterministic 500.

#include <array>
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
  /// Reject grids whose cross product exceeds this many points.
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

  /// Writes the newest `last` retained spans (0 = all) as Trace Event
  /// JSON to `path` — the `wfr serve --trace-out` dump.
  void write_trace(const std::string& path, std::size_t last = 0) const;

  /// One-line per-endpoint latency summary (count, p50, p99) for the
  /// drain message; "no requests" when nothing was served.
  std::string drain_summary() const;

 private:
  /// One endpoint's registry instruments.  Recording a request is two
  /// relaxed atomic updates here plus one on its response-class counter.
  struct EndpointMetrics {
    std::string name;
    obs::Counter& requests;
    obs::LogHistogram& latency_seconds;
  };
  /// Registers `serve.requests.<name>` and
  /// `serve.latency_seconds.<name>`.
  EndpointMetrics endpoint_metrics(std::string name);

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
  obs::MetricsRegistry registry_;
  EndpointMetrics roofline_metrics_ = endpoint_metrics("roofline");
  EndpointMetrics import_metrics_ = endpoint_metrics("import");
  EndpointMetrics sweep_metrics_ = endpoint_metrics("sweep");
  EndpointMetrics svg_metrics_ = endpoint_metrics("svg");
  EndpointMetrics healthz_metrics_ = endpoint_metrics("healthz");
  EndpointMetrics metrics_metrics_ = endpoint_metrics("metrics");
  EndpointMetrics trace_metrics_ = endpoint_metrics("trace");
  const std::array<EndpointMetrics*, 7> endpoints_{
      &roofline_metrics_, &import_metrics_,  &sweep_metrics_,
      &svg_metrics_,      &healthz_metrics_, &metrics_metrics_,
      &trace_metrics_};
  obs::Counter& responses_2xx_ = registry_.counter("serve.responses.2xx");
  obs::Counter& responses_4xx_ = registry_.counter("serve.responses.4xx");
  obs::Counter& responses_5xx_ = registry_.counter("serve.responses.5xx");
  const Server* server_ = nullptr;
};

}  // namespace wfr::serve

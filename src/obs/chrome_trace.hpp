#pragma once
// Chrome/Perfetto trace-event exporter.
//
// Serializes a trace::WorkflowTrace (and optionally the shared-resource
// time series from obs::ResourceProbe) into the Trace Event Format that
// chrome://tracing and https://ui.perfetto.dev open directly:
//
//   * one "process" per workflow (pid 1, named after the workflow);
//   * one "thread" (track) per task lane, named after the task;
//   * a complete ("X") duration event per task and per trace::Span, so
//     phases nest under their task slice;
//   * a second process (pid 2, "shared resources") holding counter ("C")
//     tracks per resource: active/finite flow counts, instantaneous
//     utilization, and per-flow fair-share bandwidth.  A track longer
//     than 8192 samples is decimated evenly; its first and last samples
//     always survive.
//
// Timestamps are microseconds (the format's unit); events are sorted by
// timestamp with metadata first, so consumers that stream see a
// monotonically ordered file.

#include <string>
#include <vector>

#include "obs/probe.hpp"
#include "trace/timeline.hpp"
#include "util/json.hpp"

namespace wfr::obs {

/// Builds the trace as a JSON object: {"displayTimeUnit": "ms",
/// "traceEvents": [...]}.
util::Json chrome_trace_json(
    const trace::WorkflowTrace& trace,
    const std::vector<ResourceTimeSeries>& resources = {});

/// Serializes chrome_trace_json() to `path` (compact, one file).
void write_chrome_trace(
    const std::string& path, const trace::WorkflowTrace& trace,
    const std::vector<ResourceTimeSeries>& resources = {});

}  // namespace wfr::obs

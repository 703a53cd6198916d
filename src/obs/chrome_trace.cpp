#include "obs/chrome_trace.hpp"

#include "obs/trace_event.hpp"
#include "util/error.hpp"
#include "util/file.hpp"

namespace wfr::obs {

namespace {

constexpr int kWorkflowPid = 1;
constexpr int kResourcePid = 2;
// Counter samples kept per resource track.
constexpr std::size_t kMaxCounterEventsPerResource = 8192;

/// Counter tracks for one resource: one event per surviving sample (step
/// function), plus a closing zero so tracks do not dangle at the last
/// value forever.
void append_resource_counters(const ResourceTimeSeries& series,
                              util::JsonArray* events) {
  const std::vector<ResourceSample>& samples = series.samples();
  if (samples.empty()) return;
  // Even decimation keeping first and last.
  const std::size_t stride =
      (samples.size() + kMaxCounterEventsPerResource - 1) /
      kMaxCounterEventsPerResource;
  const std::string flows_track = series.name() + " flows";
  const std::string rate_track = series.name() + " bandwidth";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i % stride != 0 && i != samples.size() - 1) continue;
    const ResourceSample& s = samples[i];
    util::JsonObject flows;
    flows.set("active", s.active_flows);
    flows.set("finite", s.finite_flows);
    events->push_back(trace_counter_event(kResourcePid, flows_track,
                                          s.start_seconds, std::move(flows)));
    util::JsonObject rate;
    rate.set("per_flow_GBps", s.per_flow_rate / 1e9);
    rate.set("utilization_pct", 100.0 * s.utilization());
    events->push_back(trace_counter_event(kResourcePid, rate_track,
                                          s.start_seconds, std::move(rate)));
  }
  const double end = samples.back().end_seconds();
  util::JsonObject zero_flows;
  zero_flows.set("active", 0);
  zero_flows.set("finite", 0);
  events->push_back(trace_counter_event(kResourcePid, flows_track, end,
                                        std::move(zero_flows)));
  util::JsonObject zero_rate;
  zero_rate.set("per_flow_GBps", 0.0);
  zero_rate.set("utilization_pct", 0.0);
  events->push_back(trace_counter_event(kResourcePid, rate_track, end,
                                        std::move(zero_rate)));
}

}  // namespace

util::Json chrome_trace_json(const trace::WorkflowTrace& trace,
                             const std::vector<ResourceTimeSeries>& resources) {
  util::JsonArray events;

  // Process + thread naming metadata.
  const std::string workflow =
      trace.name().empty() ? "workflow" : trace.name();
  events.push_back(
      trace_metadata_event(kWorkflowPid, 0, "process_name", workflow));
  if (!resources.empty()) {
    events.push_back(trace_metadata_event(kResourcePid, 0, "process_name",
                                          "shared resources"));
  }
  for (const trace::TaskRecord& record : trace.records()) {
    const int tid = static_cast<int>(record.task) + 1;
    std::string lane = record.name;
    if (record.nodes > 1)
      lane += " (" + std::to_string(record.nodes) + " nodes)";
    events.push_back(
        trace_metadata_event(kWorkflowPid, tid, "thread_name", lane));
  }

  // Task + phase slices.
  for (const trace::TaskRecord& record : trace.records()) {
    const int tid = static_cast<int>(record.task) + 1;
    if (record.duration() > 0.0) {
      util::JsonObject args;
      args.set("nodes", record.nodes);
      events.push_back(trace_complete_event(
          kWorkflowPid, tid, record.name,
          record.kind.empty() ? "task" : record.kind, record.start_seconds,
          record.duration(), std::move(args)));
    }
    for (const trace::Span& span : record.spans) {
      util::JsonObject args;
      args.set("task", record.name);
      events.push_back(trace_complete_event(
          kWorkflowPid, tid, trace::phase_name(span.phase), "phase",
          span.start_seconds, span.duration(), std::move(args)));
    }
  }

  // Resource counter tracks.
  for (const ResourceTimeSeries& series : resources)
    append_resource_counters(series, &events);

  sort_trace_events(events);
  return trace_events_envelope(std::move(events));
}

void write_chrome_trace(const std::string& path,
                        const trace::WorkflowTrace& trace,
                        const std::vector<ResourceTimeSeries>& resources) {
  const std::string text = chrome_trace_json(trace, resources).dump();
  util::write_file(path, text + "\n");
}

}  // namespace wfr::obs

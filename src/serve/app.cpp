#include "serve/app.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "core/characterization.hpp"
#include "exec/shard.hpp"
#include "core/model.hpp"
#include "core/system_spec.hpp"
#include "dag/graph.hpp"
#include "dag/wdl.hpp"
#include "workflows/wfcommons.hpp"
#include "plot/roofline_plot.hpp"
#include "util/error.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace wfr::serve {

namespace {

/// System field of a request: a preset name or an inline spec object.
/// The server never reads files on behalf of a client.
core::SystemSpec parse_system(const util::Json& json) {
  if (json.is_string()) {
    const std::string& name = json.as_string();
    if (std::optional<core::SystemSpec> preset = core::SystemSpec::preset(name))
      return *std::move(preset);
    throw util::InvalidArgument("unknown system preset '" + name + "'");
  }
  return core::SystemSpec::from_json(json);
}

/// Workflow field of a request: a characterization object, an inline
/// workflow description ({"tasks": [...]}; characterized structurally),
/// or an inline WfCommons instance (an object with a "workflow" member;
/// imported, then characterized).
core::WorkflowCharacterization parse_workflow(const util::Json& json) {
  if (json.is_object()) {
    if (workflows::looks_like_wfcommons(json))
      return core::characterize_graph(
          workflows::import_wfcommons_json(json).graph);
    if (const util::Json* tasks = json.as_object().find("tasks")) {
      if (tasks->is_array())
        return core::characterize_graph(dag::load_workflow_json(json));
    }
  }
  return core::WorkflowCharacterization::from_json(json);
}

/// Applies a body's optional "target_makespan" (seconds, or a duration
/// like "10 min") to `workflow`.  A present target must be finite and
/// > 0: a non-positive one is an error, never "no target".
void apply_target_makespan(const util::Json& body,
                           core::WorkflowCharacterization& workflow) {
  const util::Json* target = body.as_object().find("target_makespan");
  if (target == nullptr) return;
  const double seconds = target->is_string()
                             ? util::parse_seconds(target->as_string())
                             : target->as_number();
  util::require(std::isfinite(seconds) && seconds > 0.0,
                "target_makespan must be finite and > 0, got %g", seconds);
  workflow.target_makespan_seconds = seconds;
}

/// Builds the one scenario a /v1/roofline or /v1/svg body describes.
exec::Scenario parse_scenario(const util::Json& body) {
  util::require(body.is_object(), "request body must be a JSON object");
  exec::Scenario scenario;
  scenario.system = parse_system(body.at("system"));
  scenario.workflow = parse_workflow(body.at("workflow"));
  apply_target_makespan(body, scenario.workflow);
  return scenario;
}

const char* ceiling_kind_name(core::CeilingKind kind) {
  switch (kind) {
    case core::CeilingKind::kDiagonal: return "diagonal";
    case core::CeilingKind::kHorizontal: return "horizontal";
    case core::CeilingKind::kWall: return "wall";
  }
  return "unknown";
}

util::Json ceilings_json(const core::RooflineModel& model, int wall) {
  util::JsonArray ceilings;
  for (const core::Ceiling& ceiling : model.ceilings()) {
    util::JsonObject entry;
    entry.set("kind", util::Json(ceiling_kind_name(ceiling.kind)));
    entry.set("channel", util::Json(core::channel_name(ceiling.channel)));
    entry.set("label", util::Json(ceiling.label));
    switch (ceiling.kind) {
      case core::CeilingKind::kDiagonal:
        entry.set("seconds_per_task", util::Json(ceiling.seconds_per_task));
        entry.set("tasks_per_instance",
                  util::Json(ceiling.tasks_per_instance));
        entry.set("tps_at_wall",
                  util::Json(ceiling.tps_at(static_cast<double>(wall))));
        break;
      case core::CeilingKind::kHorizontal:
        entry.set("tps_limit", util::Json(ceiling.tps_limit));
        entry.set("tps_at_wall", util::Json(ceiling.tps_limit));
        break;
      case core::CeilingKind::kWall:
        entry.set("max_parallel_tasks",
                  util::Json(ceiling.max_parallel_tasks));
        break;
    }
    ceilings.push_back(util::Json(std::move(entry)));
  }
  return util::Json(std::move(ceilings));
}

/// The /v1/roofline response object for a scenario (shared with
/// /v1/import, which nests it under "roofline").  The summary fields are
/// a sweep row's (evaluate_model_summary); the ceilings and the measured
/// dot come from the scenario's one labeled model.
util::JsonObject roofline_body(const exec::Scenario& scenario) {
  std::vector<core::CeilingSpec> scratch;
  const exec::ModelSummary summary =
      exec::evaluate_model_summary(scenario, scratch);
  const core::RooflineModel model =
      core::build_model(scenario.system, scenario.workflow);

  util::JsonObject out;
  out.set("workflow", util::Json(scenario.workflow.name));
  out.set("system", util::Json(scenario.system.name));
  out.set("parallelism_wall", util::Json(summary.parallelism_wall));
  out.set("attainable_tps_at_wall", util::Json(summary.attainable_tps_at_wall));
  util::JsonObject binding;
  binding.set("label", util::Json(summary.binding_label));
  binding.set("channel", util::Json(summary.binding_channel));
  out.set("binding", util::Json(std::move(binding)));
  out.set("slot_seconds", util::Json(summary.slot_seconds));
  out.set("campaign_makespan_seconds",
          util::Json(summary.campaign_makespan_seconds));
  out.set("ceilings", ceilings_json(model, summary.parallelism_wall));

  if (!model.dots().empty()) {
    const core::Dot& dot = model.dots().front();
    util::JsonObject measured;
    measured.set("parallel_tasks", util::Json(dot.parallel_tasks));
    measured.set("tps", util::Json(dot.tps));
    measured.set("efficiency", util::Json(model.efficiency(dot)));
    measured.set("bound_class",
                 util::Json(core::bound_class_name(model.classify(dot))));
    if (model.has_targets())
      measured.set("zone", util::Json(core::zone_name(model.zone_of(dot))));
    out.set("measured", util::Json(std::move(measured)));
  }
  return out;
}

}  // namespace

App::App(AppOptions options)
    : options_(options),
      runner_(exec::SweepOptions{.jobs = options.sweep_jobs}),
      tracer_(obs::TracerOptions{options.trace_enabled,
                                 options.trace_capacity}) {
  runner_.set_tracer(&tracer_);
}

App::EndpointMetrics App::endpoint_metrics(std::string name) {
  obs::Counter& requests = registry_.counter("serve.requests." + name);
  obs::LogHistogram& latency =
      registry_.histogram("serve.latency_seconds." + name);
  return EndpointMetrics{std::move(name), requests, latency};
}

void App::bind(Server& server) {
  server_ = &server;
  server.set_tracer(&tracer_);
  const auto handle = [this](EndpointMetrics& endpoint,
                             util::HttpResponse (App::*handler)(
                                 const util::HttpRequest&)) -> Handler {
    return [this, &endpoint, handler](const util::HttpRequest& request) {
      return observed(endpoint, handler, request);
    };
  };
  server.route("POST", "/v1/roofline",
               handle(roofline_metrics_, &App::handle_roofline));
  server.route("POST", "/v1/sweep", handle(sweep_metrics_, &App::handle_sweep));
  server.route("POST", "/v1/import",
               handle(import_metrics_, &App::handle_import));
  server.route("GET", "/v1/svg", handle(svg_metrics_, &App::handle_svg));
  server.route("POST", "/v1/svg", handle(svg_metrics_, &App::handle_svg));
  server.route("GET", "/healthz",
               handle(healthz_metrics_, &App::handle_healthz));
  server.route("GET", "/metrics",
               handle(metrics_metrics_, &App::handle_metrics));
  server.route("GET", "/debug/trace",
               handle(trace_metrics_, &App::handle_trace));
}

util::HttpResponse App::observed(
    EndpointMetrics& endpoint,
    util::HttpResponse (App::*handler)(const util::HttpRequest&),
    const util::HttpRequest& request) {
  // Nested under the server's "handle" span when dispatched from a
  // worker; the root of its own trace from the raw-bytes entry points.
  obs::SpanScope span(&tracer_, endpoint.name, "app");
  const std::uint64_t begin_ns = obs::Tracer::now_ns();
  util::HttpResponse response;
  try {
    response = (this->*handler)(request);
  } catch (const util::ParseError& e) {
    response = util::http_error(400, e.what());
  } catch (const util::InvalidArgument& e) {
    response = util::http_error(400, e.what());
  } catch (const util::NotFound& e) {
    response = util::http_error(400, e.what());
  } catch (const std::exception& e) {
    response = util::http_error(500, e.what());
  }
  const double seconds =
      static_cast<double>(obs::Tracer::now_ns() - begin_ns) * 1e-9;
  endpoint.requests.increment();
  endpoint.latency_seconds.observe(seconds);
  obs::Counter& klass = response.status >= 500   ? responses_5xx_
                        : response.status >= 400 ? responses_4xx_
                                                 : responses_2xx_;
  klass.increment();
  if (span.active()) span.arg("status", std::to_string(response.status));
  return response;
}

util::HttpResponse App::roofline_from_bytes(std::string_view body) {
  util::HttpRequest request;
  request.method = "POST";
  request.target = "/v1/roofline";
  request.version = "HTTP/1.1";
  request.body.assign(body);
  return observed(roofline_metrics_, &App::handle_roofline, request);
}

util::HttpResponse App::sweep_from_bytes(std::string_view body,
                                         std::string_view query) {
  util::HttpRequest request;
  request.method = "POST";
  request.target = "/v1/sweep";
  if (!query.empty()) {
    request.target += '?';
    request.target += query;
  }
  request.version = "HTTP/1.1";
  request.body.assign(body);
  return observed(sweep_metrics_, &App::handle_sweep, request);
}

util::HttpResponse App::handle_roofline(const util::HttpRequest& request) {
  const util::Json body = util::Json::parse(request.body);
  util::HttpResponse response;
  response.body = util::Json(roofline_body(parse_scenario(body))).dump() + "\n";
  return response;
}

util::HttpResponse App::handle_import(const util::HttpRequest& request) {
  const util::Json body = util::Json::parse(request.body);
  util::require(body.is_object(), "request body must be a JSON object");

  // Either a bare WfCommons document, or {"workflow": <document>,
  // "system": <preset|spec>} to also evaluate the imported instance's
  // roofline.  A bare document's own "workflow" member is the instance's
  // inner object, never itself WfCommons-shaped, so the wrapped form is
  // unambiguous.
  const util::Json* doc = &body;
  const util::Json* wrapped = body.as_object().find("workflow");
  if (wrapped != nullptr && workflows::looks_like_wfcommons(*wrapped))
    doc = wrapped;
  const workflows::WfInstance instance =
      workflows::import_wfcommons_json(*doc);
  const core::WorkflowCharacterization characterization =
      core::characterize_graph(instance.graph);

  std::size_t dependencies = 0;
  const auto count = static_cast<dag::TaskId>(instance.graph.task_count());
  for (dag::TaskId id = 0; id < count; ++id)
    dependencies += instance.graph.predecessors(id).size();

  util::JsonObject out;
  out.set("name", util::Json(instance.graph.name()));
  out.set("schema_version", util::Json(instance.schema_version));
  out.set("layout",
          util::Json(instance.legacy ? "legacy" : "specification"));
  out.set("tasks", util::Json(instance.graph.task_count()));
  out.set("files", util::Json(instance.file_count));
  out.set("dependencies", util::Json(dependencies));
  out.set("levels", util::Json(instance.graph.level_count()));
  out.set("parallel_tasks", util::Json(characterization.parallel_tasks));
  if (instance.makespan_seconds >= 0.0)
    out.set("recorded_makespan_seconds",
            util::Json(instance.makespan_seconds));
  out.set("workflow", dag::save_workflow(instance.graph));
  out.set("characterization", characterization.to_json());

  if (const util::Json* system_json = body.as_object().find("system")) {
    exec::Scenario scenario;
    scenario.system = parse_system(*system_json);
    scenario.workflow = characterization;
    apply_target_makespan(body, scenario.workflow);
    out.set("roofline", util::Json(roofline_body(scenario)));
  }

  util::HttpResponse response;
  response.body = util::Json(std::move(out)).dump() + "\n";
  return response;
}

util::HttpResponse App::handle_sweep(const util::HttpRequest& request) {
  const util::Json body = util::Json::parse(request.body);
  util::require(body.is_object(), "request body must be a JSON object");
  const core::SystemSpec system = parse_system(body.at("system"));
  core::WorkflowCharacterization base =
      core::WorkflowCharacterization::from_json(body.at("workflow"));
  apply_target_makespan(body, base);

  // Sharded requests ({"shard": {"count": N, "index": I}}) answer only
  // shard I's rows, so N servers can split one campaign grid; the point
  // cap then applies per shard, not to the whole grid (exec/shard.hpp has
  // the row-assignment function).
  exec::ShardSpec shard;
  if (const util::Json* shard_json = body.as_object().find("shard")) {
    util::require(shard_json->is_object(),
                  "shard must be an object {count, index}");
    constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
    shard.count = static_cast<int>(
        shard_json->at("count").as_int_in(1, kIntMax, "shard.count"));
    shard.index = static_cast<int>(
        shard_json->at("index").as_int_in(0, kIntMax, "shard.index"));
    // Bodies written for older servers may still say "mode": "stride".
    const util::Json* mode = shard_json->as_object().find("mode");
    if (mode != nullptr &&
        !(mode->is_string() && mode->as_string() == "stride"))
      throw util::ParseError("shard.mode must be \"stride\" or absent, got " +
                             mode->dump());
    shard.validate();
  }

  // Axes: {"params": {"nodes_per_task": [1, 2], "efficiency": [1, 0.8]}}
  // (axis order = member order; our JSON objects preserve it).
  const util::Json& params = body.at("params");
  util::require(params.is_object() && !params.as_object().empty(),
                "params must be a non-empty object of name -> [values]");
  std::vector<exec::ParamAxis> axes;
  std::size_t points = 1;
  // With N shards the whole grid may hold N * cap points: each shard owns
  // at most ceil(points / N) <= cap rows.  Checked per axis so the
  // running product cannot overflow.
  const std::size_t cap =
      options_.max_sweep_points * static_cast<std::size_t>(shard.count);
  for (const auto& [name, values] : params.as_object().members()) {
    exec::ParamAxis axis;
    axis.name = name;
    for (const util::Json& value : values.as_array())
      axis.values.push_back(value.as_number());
    util::require(!axis.values.empty(),
                  "axis '%s' must list at least one value", name.c_str());
    points *= axis.values.size();
    if (shard.sharded())
      util::require(points <= cap,
                    "grid exceeds %zu points per shard across %d shards",
                    options_.max_sweep_points, shard.count);
    else
      util::require(points <= cap, "grid exceeds %zu points",
                    options_.max_sweep_points);
    axes.push_back(std::move(axis));
  }

  std::string format = body.as_object().contains("format")
                           ? body.at("format").as_string()
                           : "json";
  for (const auto& [key, value] : util::parse_query(request.query()))
    if (key == "format") format = value;
  util::require(format == "json" || format == "ndjson",
                "format must be 'json' or 'ndjson'");

  // Both formats stream the grid row by row: scenarios materialize lazily
  // straight to NDJSON bytes (stream_lines), so resident state is the
  // reorder window — not the grid.  A sharded request emits only its
  // shard's rows; re-interleaving the per-shard NDJSON responses
  // (exec::merge_shard_outputs) re-assembles the unsharded stream
  // byte-identically.
  const exec::SweepGrid grid(system, base, axes);
  exec::StreamOptions stream;
  stream.shard = shard;

  util::HttpResponse response;
  if (format == "ndjson") {
    response.content_type = "application/x-ndjson";
    runner_.stream_lines(grid, stream,
                         [&response](std::size_t, std::string_view line) {
                           response.body += line;
                         });
    return response;
  }

  // Each row is a compact JSON object written with the serializer's own
  // escaping and number formatting (exec::append_result_line), so it goes
  // into "points" as it is, less its newline.
  std::string& out = response.body;
  out = "{\"workflow\":";
  util::json_append_escaped(out, base.name);
  out += ",\"system\":";
  util::json_append_escaped(out, system.name);
  if (shard.sharded())
    out += util::format(",\"shard\":{\"count\":%d,\"index\":%d}",
                        shard.count, shard.index);
  out += ",\"points\":[";
  runner_.stream_lines(grid, stream,
                       [&out](std::size_t, std::string_view line) {
                         if (out.back() != '[') out += ',';
                         out.append(line.substr(0, line.size() - 1));
                       });
  out += "]}\n";
  return response;
}

util::HttpResponse App::handle_svg(const util::HttpRequest& request) {
  plot::RooflinePlotOptions plot_options;
  exec::Scenario scenario;

  if (request.method == "POST") {
    const util::Json body = util::Json::parse(request.body);
    scenario = parse_scenario(body);
    plot_options.width = body.number_or("width", plot_options.width);
    plot_options.height = body.number_or("height", plot_options.height);
    plot_options.title = body.string_or("title", "");
  } else {
    // GET: the characterization arrives as query parameters over a preset
    // system, e.g. /v1/svg?system=perlmutter-gpu&total_tasks=600&...
    util::JsonObject workflow;
    util::Json system;
    for (const auto& [key, value] : util::parse_query(request.query())) {
      if (key == "system") {
        system = util::Json(value);
      } else if (key == "name") {
        workflow.set(key, util::Json(value));
      } else if (key == "width" || key == "height") {
        (key == "width" ? plot_options.width : plot_options.height) =
            util::parse_double_flag(key, value);
      } else if (key == "title") {
        plot_options.title = value;
      } else {
        workflow.set(key, util::Json(util::parse_double_flag(key, value)));
      }
    }
    util::require(system.is_string(),
                  "GET /v1/svg requires a system=<preset> query parameter");
    util::JsonObject body;
    body.set("system", system);
    body.set("workflow", util::Json(std::move(workflow)));
    scenario = parse_scenario(util::Json(std::move(body)));
  }

  util::HttpResponse response;
  response.content_type = "image/svg+xml";
  response.body = plot::render_roofline(
      core::build_model(scenario.system, scenario.workflow), plot_options);
  return response;
}

util::HttpResponse App::handle_healthz(const util::HttpRequest&) {
  util::HttpResponse response;
  response.content_type = "text/plain";
  response.body = "ok\n";
  return response;
}

util::HttpResponse App::handle_metrics(const util::HttpRequest&) {
  const auto set = [this](std::string_view name, double value) {
    registry_.gauge(name).set(value);
  };
  if (server_ != nullptr) {
    const Server::Stats& stats = server_->stats();
    set("serve.connections.accepted",
        static_cast<double>(stats.accepted.load()));
    set("serve.connections.shed", static_cast<double>(stats.shed.load()));
    set("serve.requests.served", static_cast<double>(stats.requests.load()));
    set("serve.accept_errors", static_cast<double>(stats.accept_errors.load()));
    set("serve.timeouts", static_cast<double>(stats.timeouts.load()));
    // Connection-lifecycle gauges: what the reactor holds right now.
    set("serve.connections.active",
        static_cast<double>(stats.connections_active.load()));
    set("serve.connections.idle_keepalive",
        static_cast<double>(stats.connections_idle.load()));
    // Per-event-loop snapshots (loop index = thread owning the epoll
    // set): owned connections, dispatched-but-unanswered requests, and
    // completions waiting to be drained.
    const std::vector<LoopStats> loops = server_->loop_stats();
    for (std::size_t i = 0; i < loops.size(); ++i) {
      const std::string prefix = "serve.loop" + std::to_string(i);
      set(prefix + ".connections", static_cast<double>(loops[i].connections));
      set(prefix + ".inflight", static_cast<double>(loops[i].inflight));
      set(prefix + ".queue_depth", static_cast<double>(loops[i].queue_depth));
    }
  }
  const obs::Tracer::Stats trace_stats = tracer_.stats();
  set("serve.trace.spans_recorded",
      static_cast<double>(trace_stats.spans_recorded));
  set("serve.trace.spans_evicted",
      static_cast<double>(trace_stats.spans_evicted));

  util::HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  response.body = registry_.prometheus_text();
  return response;
}

util::HttpResponse App::handle_trace(const util::HttpRequest& request) {
  // Newest-N window; 0 means everything retained.  The body is a live
  // view (ids and timestamps), outside the byte-identity contract.
  std::size_t last = 512;
  for (const auto& [key, value] : util::parse_query(request.query()))
    if (key == "last") last = util::parse_u64_flag(key, value);
  util::HttpResponse response;
  response.body = tracer_.trace_events_json(last).dump() + "\n";
  return response;
}

void App::write_trace(const std::string& path, std::size_t last) const {
  util::write_file(path, tracer_.trace_events_json(last).dump() + "\n");
}

std::string App::drain_summary() const {
  std::string out = "latency";
  bool any = false;
  for (const EndpointMetrics* endpoint : endpoints_) {
    const obs::LogHistogram& latency = endpoint->latency_seconds;
    if (latency.count() == 0) continue;
    any = true;
    out += util::format(
        " %s n=%llu p50=%.3fms p99=%.3fms", endpoint->name.c_str(),
        static_cast<unsigned long long>(latency.count()),
        latency.quantile(0.50) * 1e3, latency.quantile(0.99) * 1e3);
  }
  if (!any) out += ": no requests";
  return out;
}

}  // namespace wfr::serve

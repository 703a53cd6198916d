#include "targets.hpp"

#include "core/characterization.hpp"
#include "core/system_spec.hpp"
#include "dag/wdl.hpp"
#include "exec/checkpoint.hpp"
#include "serve/app.hpp"
#include "util/error.hpp"
#include "util/http.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "workflows/wfcommons.hpp"

namespace wfr::fuzz {

namespace {

/// Maps a ParseError message to a stable branch name.  Checked in order;
/// the specific hardening branches (depth, range, surrogate) come first
/// so they never fall through to a generic bucket.
std::string classify_json_error(std::string_view what) {
  const auto has = [&](const char* text) {
    return what.find(text) != std::string_view::npos;
  };
  if (has("depth limit")) return "depth";
  if (has("out of range")) return "number-range";
  if (has("surrogate")) return "surrogate";
  if (has("trailing")) return "trailing";
  if (has("\\u escape")) return "unicode-escape";
  if (has("escape character")) return "escape";
  if (has("malformed number")) return "number";
  if (has("invalid literal")) return "literal";
  if (has("end of input")) return "eof";
  if (has("key string")) return "object-key";
  if (has("in object")) return "object";
  if (has("in array")) return "array";
  if (has("expected a value")) return "value";
  return "syntax";
}

const char* json_kind(const util::Json& doc) {
  if (doc.is_object()) return "object";
  if (doc.is_array()) return "array";
  if (doc.is_string()) return "string";
  if (doc.is_number()) return "number";
  if (doc.is_bool()) return "bool";
  return "null";
}

}  // namespace

std::string run_json(std::string_view input) {
  util::Json doc;
  try {
    doc = util::Json::parse(input);
  } catch (const util::ParseError& e) {
    return "reject:" + classify_json_error(e.what());
  }
  // Accepted documents must survive serialize -> reparse -> serialize
  // byte-identically (the repro-file and serve byte-identity contracts).
  const std::string dumped = doc.dump();
  if (util::Json::parse(dumped).dump() != dumped) return "fail:round-trip";
  return std::string("ok:") + json_kind(doc);
}

std::string run_http(std::string_view input) {
  util::HttpLimits limits;
  limits.max_header_bytes = 1024;
  limits.max_body_bytes = 2048;
  util::HttpParser parser(limits);
  parser.feed(input);
  int requests = 0;
  for (;;) {
    util::HttpRequest request;
    const util::HttpParser::Status status = parser.next(&request);
    if (status == util::HttpParser::Status::kComplete) {
      // Exercise the accessors fuzzed bytes flow into.
      request.path();
      request.keep_alive();
      if (const std::string* type = request.header("content-type"))
        (void)*type;
      ++requests;
      continue;
    }
    if (status == util::HttpParser::Status::kError) {
      std::string label = "error:" + std::to_string(parser.error_status());
      // The 400 family has four distinct framing branches; split them so
      // each corpus entry can prove it covers a different one.
      const std::string& message = parser.error_message();
      if (parser.error_status() == 400) {
        if (message.find("request line") != std::string::npos)
          label += "-request-line";
        else if (message.find("header field") != std::string::npos)
          label += "-header";
        else if (message.find("Content-Length") != std::string::npos)
          label += "-length";
        else if (message.find("absolute") != std::string::npos)
          label += "-target";
      }
      return label;
    }
    break;  // kNeedMore
  }
  if (requests == 0) return "needmore";
  return util::format("ok:%d%s", requests,
                      parser.buffer_empty() ? "" : "+partial");
}

std::string run_spec(std::string_view input) {
  util::Json doc;
  try {
    doc = util::Json::parse(input);
  } catch (const util::ParseError&) {
    return "reject:json";
  }
  // Run all three loaders on every document: a fuzzer mutating one valid
  // spec then probes the others' error handling for free.
  const auto probe = [](auto&& load) -> const char* {
    try {
      load();
      return "ok";
    } catch (const util::ParseError&) {
      return "parse";
    } catch (const util::NotFound&) {
      return "notfound";
    } catch (const util::InvalidArgument&) {
      return "invalid";
    }
  };
  const char* wdl = probe([&] { dag::load_workflow_json(doc); });
  const char* sys = probe([&] { core::SystemSpec::from_json(doc).validate(); });
  const char* chz = probe([&] {
    core::WorkflowCharacterization::from_json(doc).validate();
  });
  return util::format("wdl=%s sys=%s chz=%s", wdl, sys, chz);
}

std::string run_serve(std::string_view input) {
  // One App per process, shared across inputs exactly as it is across
  // requests in production.  sweep_jobs=1 keeps the harness
  // single-threaded; the small grid cap bounds per-input work.
  static serve::App app{[] {
    serve::AppOptions options;
    options.sweep_jobs = 1;
    options.max_sweep_points = 64;
    return options;
  }()};
  const std::size_t newline = input.find('\n');
  std::string_view head = input.substr(0, newline);
  const std::string_view body =
      newline == std::string_view::npos ? std::string_view{}
                                        : input.substr(newline + 1);
  std::string_view query;
  if (const std::size_t q = head.find('?'); q != std::string_view::npos) {
    query = head.substr(q + 1);
    head = head.substr(0, q);
  }
  const bool sweep = head == "sweep";
  const util::HttpResponse response = sweep
                                          ? app.sweep_from_bytes(body, query)
                                          : app.roofline_from_bytes(body);
  std::string label = util::format("%s:%d", sweep ? "sweep" : "roofline",
                                   response.status);
  if (response.content_type == "application/x-ndjson") label += ":ndjson";
  // Split the 400s by cause so each rejection entry proves its own branch.
  if (response.status == 400) {
    const auto has = [&](const char* text) {
      return response.body.find(text) != std::string::npos;
    };
    if (has("shard.mode"))
      label += "-shard-mode";
    else if (has("must be an integer in"))
      label += "-range";
    else if (has("grid exceeds"))
      label += "-cap";
  }
  return label;
}

std::string run_import(std::string_view input) {
  util::Json doc;
  try {
    doc = util::Json::parse(input);
  } catch (const util::ParseError&) {
    return "reject:json";
  }
  workflows::WfInstance instance;
  try {
    instance = workflows::import_wfcommons_json(doc);
  } catch (const util::Error& e) {
    // Bucket by reject path so --require-distinct can prove each corpus
    // entry covers a different loader branch.
    const std::string_view what = e.what();
    const auto has = [&](const char* text) {
      return what.find(text) != std::string_view::npos;
    };
    if (has("duplicate task id")) return "reject:duplicate-task";
    if (has(": runtime ") && has("out of range")) return "reject:runtime";
    if (has(": core count ") && has("out of range")) return "reject:cores";
    if (has("out of range")) return "reject:size";
    if (has("unknown")) return "reject:ref";
    if (has("cycle")) return "reject:cycle";
    return "reject:shape";
  }
  // Accepted instances must characterize cleanly and serialize -> reparse
  // byte-identically (the import CLI and /v1/import contracts).
  core::characterize_graph(instance.graph);
  const std::string dumped = dag::save_workflow(instance.graph).dump();
  if (util::Json::parse(dumped).dump() != dumped) return "fail:round-trip";
  return instance.legacy ? "ok:legacy" : "ok:spec";
}

std::string run_checkpoint(std::string_view input) {
  util::Json doc;
  try {
    doc = util::Json::parse(input);
  } catch (const util::ParseError&) {
    return "reject:json";
  }
  exec::SweepCheckpoint checkpoint;
  try {
    checkpoint = exec::checkpoint_from_json(doc);
  } catch (const util::Error& e) {
    const std::string_view what = e.what();
    const auto has = [&](const char* text) {
      return what.find(text) != std::string_view::npos;
    };
    if (has("shard.mode")) return "reject:shard-mode";
    if (has("unsupported version") || has("version marker"))
      return "reject:version";
    if (has("Hash128")) return "reject:hash";
    if (has("ndjson_bytes")) return "reject:bytes";
    if (has("'completed'") || has("range must be")) return "reject:range";
    if (has("shard")) return "reject:shard";
    return "reject:shape";
  }
  // What save_checkpoint writes, --resume must read back unchanged.
  const exec::SweepCheckpoint again =
      exec::checkpoint_from_json(exec::checkpoint_to_json(checkpoint));
  if (again.grid_hash != checkpoint.grid_hash ||
      again.rows != checkpoint.rows ||
      again.ndjson_bytes != checkpoint.ndjson_bytes ||
      again.shard.count != checkpoint.shard.count ||
      again.shard.index != checkpoint.shard.index)
    return "fail:round-trip";
  return checkpoint.shard.sharded() ? "ok:sharded" : "ok:whole";
}

const std::vector<Target>& targets() {
  static const std::vector<Target> kTargets = {
      {"json", "util::Json::parse + serializer round-trip", run_json},
      {"http", "util::HttpParser request framing", run_http},
      {"spec", "workflow/system/characterization spec loaders", run_spec},
      {"serve", "/v1/roofline and /v1/sweep handlers", run_serve},
      {"import", "WfCommons/WfBench instance loader", run_import},
      {"checkpoint", "sweep checkpoint reader behind --resume",
       run_checkpoint},
  };
  return kTargets;
}

const Target* find_target(std::string_view name) {
  for (const Target& target : targets())
    if (name == target.name) return &target;
  return nullptr;
}

}  // namespace wfr::fuzz

#pragma once
// Fuzz targets for every parser that consumes untrusted bytes
// (docs/TESTING.md): util::Json::parse, util::HttpParser, the spec
// loaders behind --system/--workflow/--characterization files, the
// /v1/roofline + /v1/sweep handlers, the WfCommons importer and the
// sweep checkpoint reader behind --resume.
//
// Each target runs one input and returns the *branch label* the input
// exercised ("ok:object", "error:411", ...).  Labels serve two masters:
// the corpus-replay ctest asserts that every checked-in input hits a
// distinct branch, and libFuzzer wrappers (fuzzer_main.cpp) discard the
// label and just run the parser under sanitizers.
//
// Contract: targets are deterministic, never touch the filesystem or
// network, and let only domain errors (util::Error) become branch labels
// — any other escape is a crash the harness reports.

#include <string>
#include <string_view>
#include <vector>

namespace wfr::fuzz {

using TargetFn = std::string (*)(std::string_view input);

struct Target {
  const char* name;
  const char* description;
  TargetFn run;
};

/// All registered targets, in a fixed order.
const std::vector<Target>& targets();

/// Lookup by name; nullptr when unknown.
const Target* find_target(std::string_view name);

/// util::Json::parse + round-trip through the serializer.
std::string run_json(std::string_view input);

/// util::HttpParser with reduced limits (1 KiB headers, 2 KiB bodies) so
/// the 431/413 corpus entries stay small.
std::string run_http(std::string_view input);

/// The three spec loaders fed by untrusted files: dag::load_workflow_json,
/// core::SystemSpec::from_json, core::WorkflowCharacterization::from_json.
std::string run_spec(std::string_view input);

/// /v1/roofline and /v1/sweep through serve::App's raw-bytes entry
/// points.  Input format: first line "roofline" or "sweep[?query]", the
/// remainder is the request body.
std::string run_serve(std::string_view input);

/// workflows::import_wfcommons over untrusted instance bytes: both the
/// wfformat 1.4+ specification layout and the legacy inline layout, plus
/// every reject path (shape, duplicate ids, dangling refs, cycles,
/// out-of-range volumes).
std::string run_import(std::string_view input);

/// exec::checkpoint_from_json over untrusted checkpoint bytes (the file
/// `wfr sweep --resume` reads).  An accepted checkpoint must come back
/// from checkpoint_to_json -> checkpoint_from_json with every field equal.
std::string run_checkpoint(std::string_view input);

}  // namespace wfr::fuzz

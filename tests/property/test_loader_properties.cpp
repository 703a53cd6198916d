// Integer fields at every JSON boundary are range-checked before they
// narrow: each loader is fed 2^31 (one past INT_MAX) and 2^32 + 2 (which
// a 32-bit cast silently turns into 2) in each of its integer fields.  A
// value outside the field's range must fail with an error naming the
// field; a value inside it must be read back exactly, never wrapped.

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/differential.hpp"
#include "core/characterization.hpp"
#include "core/system_spec.hpp"
#include "dag/wdl.hpp"
#include "exec/checkpoint.hpp"
#include "serve/app.hpp"
#include "trace/timeline.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace wfr {
namespace {

constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

struct IntField {
  const char* field;  ///< the name the loader's error must carry
  std::int64_t lo, hi;
  /// Loads a document holding `value` in the field; returns the value the
  /// loader read back.
  std::function<std::int64_t(const std::string& value)> load;
};

std::int64_t load_characterization(const std::string& field,
                                   const std::string& value) {
  std::string doc = R"({"name":"w","total_tasks":1,"parallel_tasks":1,)"
                    R"("nodes_per_task":1,"flops_per_node":1e12})";
  const std::string key = "\"" + field + "\":1";
  doc.replace(doc.find(key), key.size(), "\"" + field + "\":" + value);
  const core::WorkflowCharacterization c =
      core::WorkflowCharacterization::from_json(util::Json::parse(doc));
  return field == "total_tasks"      ? c.total_tasks
         : field == "parallel_tasks" ? c.parallel_tasks
                                     : c.nodes_per_task;
}

std::int64_t load_trace(const std::string& field, const std::string& value) {
  std::string doc =
      R"({"name":"t","tasks":[{"task":0,"name":"a","nodes":1,"start":0,)"
      R"("end":1,"attempts":1,"spans":[],"counters":{}}]})";
  const std::string key = "\"" + field + "\":" + (field == "task" ? "0" : "1");
  doc.replace(doc.find(key), key.size(), "\"" + field + "\":" + value);
  const trace::TaskRecord record =
      trace::WorkflowTrace::from_json(util::Json::parse(doc)).records().at(0);
  return field == "task" ? static_cast<std::int64_t>(record.task)
                         : record.nodes;
}

std::int64_t load_served_shard(const std::string& field,
                               const std::string& value) {
  static serve::App app(serve::AppOptions{.sweep_jobs = 1});
  const std::string shard = field == "shard.count"
                                ? "{\"count\":" + value + ",\"index\":0}"
                                : "{\"count\":2,\"index\":" + value + "}";
  const util::HttpResponse response = app.sweep_from_bytes(
      R"({"system":"perlmutter-gpu","workflow":{"name":"w","total_tasks":4,)"
      R"("parallel_tasks":2,"flops_per_node":1e15},)"
      R"("params":{"efficiency":[1,0.8]},"format":"ndjson","shard":)" +
      shard + "}");
  if (response.status != 200) throw util::ParseError(response.body);
  return 0;
}

std::int64_t load_checkpoint_shard(const std::string& field,
                                   const std::string& value) {
  const std::string shard = field == "shard.count"
                                ? "{\"count\":" + value + ",\"index\":0,"
                                : "{\"count\":2,\"index\":" + value + ",";
  const exec::SweepCheckpoint checkpoint =
      exec::checkpoint_from_json(util::Json::parse(
          R"({"wfr_sweep_checkpoint":1,"grid_hash":")" +
          std::string(32, '0') + R"(","shard":)" + shard +
          R"("mode":"stride"},"completed":[[0,1]],"ndjson_bytes":0})"));
  return field == "shard.count" ? checkpoint.shard.count
                                : checkpoint.shard.index;
}

std::int64_t load_repro(const std::string& field, const std::string& value) {
  std::string doc = R"({"wfr_check_repro":1,"base_seed":"1","index":0})";
  if (field == "base_seed") {
    doc.replace(doc.find("\"1\""), 3, value);
  } else if (field == "index") {
    doc.replace(doc.find("\"index\":0"), 9, "\"index\":" + value);
  } else {
    doc.insert(doc.size() - 1, ",\"scenario\":{\"gen_version\":" + value + "}");
  }
  check::CheckOptions options;
  options.jobs = 1;
  const check::CaseResult result =
      check::DifferentialRunner(options).replay(util::Json::parse(doc));
  return field == "base_seed"
             ? static_cast<std::int64_t>(result.scenario.base_seed)
             : static_cast<std::int64_t>(result.scenario.index);
}

std::vector<IntField> int_fields() {
  const auto with = [](auto loader, const char* field) {
    return [loader, field](const std::string& value) {
      return loader(field, value);
    };
  };
  const std::int64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  const std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
  return {
      {"total_tasks", kIntMin, kIntMax,
       with(load_characterization, "total_tasks")},
      {"parallel_tasks", kIntMin, kIntMax,
       with(load_characterization, "parallel_tasks")},
      {"nodes_per_task", kIntMin, kIntMax,
       with(load_characterization, "nodes_per_task")},
      {"total_nodes", kIntMin, kIntMax,
       [](const std::string& value) -> std::int64_t {
         return core::SystemSpec::from_json(
                    util::Json::parse(R"({"name":"s","total_nodes":)" +
                                      value +
                                      R"(,"node":{"peak_flops":1e12}})"))
             .total_nodes;
       }},
      {"nodes", kIntMin, kIntMax,
       [](const std::string& value) -> std::int64_t {
         return dag::load_workflow(R"({"name":"w","tasks":[{"name":"a",)"
                                   R"("nodes":)" +
                                   value + "}]}")
             .task(0)
             .nodes;
       }},
      {"task", 0, kU32Max, with(load_trace, "task")},
      {"nodes", kIntMin, kIntMax, with(load_trace, "nodes")},
      {"shard.count", 1, kIntMax, with(load_served_shard, "shard.count")},
      {"shard.index", 0, kIntMax, with(load_served_shard, "shard.index")},
      {"shard.count", 1, kIntMax, with(load_checkpoint_shard, "shard.count")},
      {"shard.index", 0, kIntMax, with(load_checkpoint_shard, "shard.index")},
      {"index", 0, kI64Max, with(load_repro, "index")},
      {"base_seed", 0, kI64Max, with(load_repro, "base_seed")},
      {"gen_version", kIntMin, kIntMax, with(load_repro, "gen_version")},
  };
}

TEST(LoaderProperties, IntegerFieldsNeverNarrowSilently) {
  const std::int64_t values[] = {std::int64_t{1} << 31,
                                 (std::int64_t{1} << 32) + 2};
  for (const IntField& row : int_fields()) {
    for (const std::int64_t value : values) {
      SCOPED_TRACE(std::string(row.field) + "=" + std::to_string(value));
      if (value >= row.lo && value <= row.hi) {
        EXPECT_EQ(row.load(std::to_string(value)), value);
        continue;
      }
      try {
        row.load(std::to_string(value));
        ADD_FAILURE() << "accepted an out-of-range value";
      } catch (const util::ParseError& e) {
        EXPECT_NE(std::string(e.what()).find(std::string(row.field) +
                                             " must be an integer in ["),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(LoaderProperties, TraceAttemptsOtherThanOneAreRejected) {
  // The simulator runs each task once: a trace may carry "attempts" only
  // as 1 or not at all.  Any other value, the narrowing probes above
  // included, fails with an error naming the field.
  const std::string head =
      R"({"name":"t","tasks":[{"task":0,"name":"a","nodes":1,"start":0,)"
      R"("end":1,)";
  const std::string tail = R"("spans":[],"counters":{}}]})";
  for (const std::string accepted : {"", R"("attempts":1,)"}) {
    SCOPED_TRACE(accepted);
    EXPECT_NO_THROW(trace::WorkflowTrace::from_json(
        util::Json::parse(head + accepted + tail)));
  }
  for (const char* value : {"0", "2", "-1", "1.5", "2147483648",
                            "4294967298", "\"1\"", "null"}) {
    SCOPED_TRACE(value);
    try {
      trace::WorkflowTrace::from_json(util::Json::parse(
          head + "\"attempts\":" + value + "," + tail));
      ADD_FAILURE() << "accepted a trace that recorded retries";
    } catch (const util::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("attempts must be 1 or absent"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(LoaderProperties, ReproSeedStringsAreCheckedDecimals) {
  for (const char* seed : {"-1", "12abc", "", "18446744073709551616"}) {
    SCOPED_TRACE(seed);
    EXPECT_THROW(load_repro("base_seed", std::string("\"") + seed + "\""),
                 util::ParseError);
  }
  // The full uint64 range survives the string form.
  check::CheckOptions options;
  options.jobs = 1;
  const check::CaseResult result =
      check::DifferentialRunner(options).replay(util::Json::parse(
          R"({"wfr_check_repro":1,"base_seed":"18446744073709551615",)"
          R"("index":3})"));
  EXPECT_EQ(result.scenario.base_seed,
            std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
}  // namespace wfr

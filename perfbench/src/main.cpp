// perfbench: runs one workload of the repository benchmark and prints one
// JSON line with everything it measured (perfbench/README.md).  run.py
// builds this binary, stamps the run and reduces the line to the metrics
// BENCHMARK.json names.
//
//   perfbench --workload sweep_campaign|serve_mixed|check_irregular
//             --seed N --seconds S --trace 0|1
//             [--data-dir DIR] [--inject digest|status]
//
// Exit status: 0 when every correctness check passed and something was
// measured, 1 otherwise (the line is still printed for diagnosis), 2 on
// bad arguments or an escaped error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "util/json.hpp"

namespace {

using namespace perfbench;
using wfr::util::Json;
using wfr::util::JsonObject;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--data-dir DIR] [--inject digest|status]\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else if (flag == "--inject") {
      args.inject = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be > 0");
  return args;
}

Json metrics_json(const std::map<std::string, Metric>& metrics) {
  JsonObject out;
  for (const auto& [name, m] : metrics) {
    JsonObject entry;
    entry.set("value", Json(m.value));
    entry.set("unit", Json(m.unit));
    entry.set("spread", Json(m.spread));
    entry.set("n", Json(m.n));
    out.set(name, Json(std::move(entry)));
  }
  return Json(std::move(out));
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Result result;
  try {
    if (args.workload == "sweep_campaign") {
      run_sweep_campaign(args, result);
    } else if (args.workload == "serve_mixed") {
      run_serve_mixed(args, result);
    } else if (args.workload == "check_irregular") {
      run_check_irregular(args, result);
    } else {
      usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 error.what());
    return 2;
  }

  // Shared end-to-end rows: memory, and failures over attempts.
  result.metrics["peak_rss_mb"] = single(peak_rss_mb(), "MB");
  result.metrics["fail_ratio"] = single(
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted),
      "ratio", result.attempted);

  // Nothing measured, or a number that is not a number, is a failure.
  if (result.attempted == 0) result.fail("no operation completed", 0);
  for (const auto* table : {&result.metrics, &result.layers})
    for (const auto& [name, m] : *table)
      if (!std::isfinite(m.value))
        result.fail("metric " + name + " is not finite", 0);

  JsonObject line;
  line.set("workload", Json(args.workload));
  line.set("seed", Json(static_cast<double>(args.seed)));
  line.set("trace", Json(args.trace));
  line.set("nproc", Json(nproc()));
  line.set("build_type", Json(PERFBENCH_BUILD_TYPE));
  line.set("compiler", Json(__VERSION__));
  line.set("attempted", Json(static_cast<double>(result.attempted)));
  line.set("failed", Json(static_cast<double>(result.failed)));
  wfr::util::JsonArray failures;
  for (const std::string& f : result.failures) failures.push_back(Json(f));
  line.set("failures", Json(std::move(failures)));
  line.set("metrics", metrics_json(result.metrics));
  line.set("layers", metrics_json(result.layers));
  std::printf("%s\n", Json(std::move(line)).dump().c_str());
  std::fflush(stdout);
  return result.failures.empty() && result.failed == 0 ? 0 : 1;
}

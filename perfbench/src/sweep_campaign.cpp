// sweep_campaign: the `wfr sweep --stream` capacity-planning campaign.  A
// seeded all-distinct grid (nodes_per_task x efficiency x fs_gbs, larger
// than the memo cache) streams through SweepRunner::stream_lines at nproc
// jobs and at 1 job, alternating, on a fresh runner per pass; the sink
// digests the NDJSON bytes.
//
// Traced run: the per-row pipeline of stream_lines is replayed serially
// through the same public functions (SweepGrid::at_into,
// evaluate_model_summary, scenario_hash, append_result_line), each call
// timed here.  The replay's bytes must digest like the stream's; what the
// stream spends per row beyond those four calls (memo cache, locks,
// reorder window, sink) is the named residual exec.stream_residual_ns.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "core/model.hpp"
#include "exec/sweep.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace perfbench {
namespace {

using namespace wfr;

struct Campaign {
  core::SystemSpec system;
  core::WorkflowCharacterization workflow;
  std::vector<exec::ParamAxis> axes;
};

/// 16 x 16 x 320 = 81920 distinct points, more than the default memo-cache
/// capacity (65536), so the cache can only miss and evict.
Campaign make_campaign(std::uint64_t seed) {
  Rng rng(seed ^ 0x73776565702d6361ULL);
  Campaign c;
  c.system.name = "campaign-system";
  c.system.total_nodes = 1024 * static_cast<int>(1 + rng.below(4));
  c.system.node.peak_flops = rng.uniform(40.0, 80.0) * util::kTFLOPS;
  c.system.node.dram_gbs = rng.uniform(150.0, 250.0) * util::kGBs;
  c.system.node.nic_gbs = rng.uniform(20.0, 30.0) * util::kGBs;
  c.system.fs_gbs = rng.uniform(3000.0, 6000.0) * util::kGBs;
  c.system.external_gbs = rng.uniform(50.0, 150.0) * util::kGBs;

  c.workflow.name = "campaign";
  c.workflow.total_tasks = 2048 + static_cast<int>(rng.below(4096));
  c.workflow.parallel_tasks = 256 + static_cast<int>(rng.below(512));
  c.workflow.flops_per_node = rng.log_uniform(1e14, 1e16);
  c.workflow.dram_bytes_per_node = rng.log_uniform(1e12, 1e14);
  c.workflow.network_bytes_per_task = rng.log_uniform(1e9, 1e11);
  c.workflow.fs_bytes_per_task = rng.log_uniform(1e10, 1e12);

  // Round axis values, as a planner would type them; the seed picks the
  // ranges.
  exec::ParamAxis nodes{"nodes_per_task", {}};
  const auto first = static_cast<double>(1 + rng.below(4));
  for (int k = 0; k < 16; ++k) nodes.values.push_back(first + k);
  exec::ParamAxis efficiency{"efficiency", {}};
  const auto offset = static_cast<double>(rng.below(30));
  for (int k = 0; k < 16; ++k)
    efficiency.values.push_back((500.0 + offset + 30.0 * k) / 1000.0);
  exec::ParamAxis fs{"fs_gbs", {}};
  const auto base = static_cast<double>(1000 + rng.below(1000));
  const auto step = static_cast<double>(2 + rng.below(5));
  for (int k = 0; k < 320; ++k)
    fs.values.push_back((base + step * k) * util::kGBs);
  c.axes = {nodes, efficiency, fs};
  return c;
}

// The memo cache and its statistics are candidates for removal; these
// probes keep the benchmark building without them and report the layer
// as absent (0) instead.
struct CacheCounts {
  double hits = 0.0;
  double lookups = 0.0;
  double evictions = 0.0;
};

template <typename Runner>
CacheCounts cache_counts(const Runner& runner) {
  if constexpr (requires { runner.stats().cache_evictions; }) {
    const auto stats = runner.stats();
    return {static_cast<double>(stats.cache_hits),
            static_cast<double>(stats.cache_hits + stats.cache_misses),
            static_cast<double>(stats.cache_evictions)};
  } else {
    return {};
  }
}

template <typename S>
std::uint64_t hash_probe(const S& scenario) {
  if constexpr (requires { scenario_hash(scenario); }) {
    return scenario_hash(scenario).lo;
  } else {
    return 0;
  }
}

struct Pass {
  double seconds = 0.0;
  std::uint64_t rows = 0;
  util::Hash128 digest;
  CacheCounts cache;
};

/// One whole-grid stream on a fresh runner.
Pass stream_pass(const exec::SweepGrid& grid, int jobs) {
  exec::SweepRunner runner(exec::SweepOptions{.jobs = jobs});
  util::HashStream digest;
  Pass pass;
  const std::uint64_t begin = now_ns();
  runner.stream_lines(grid, {}, [&](std::size_t, std::string_view line) {
    digest.bytes(line.data(), line.size());
    ++pass.rows;
  });
  pass.seconds = seconds_since(begin);
  pass.digest = digest.digest();
  pass.cache = cache_counts(runner);
  return pass;
}

/// Rows the set-up streams: the first page of the campaign's output.
constexpr std::size_t kSetupRows = 4096;

struct StopStream {};

/// Set-up: grid and runner built, the first kSetupRows rows streamed.
double setup_once(const Campaign& c, int jobs) {
  const std::uint64_t begin = now_ns();
  const exec::SweepGrid grid(c.system, c.workflow, c.axes);
  exec::SweepRunner runner(exec::SweepOptions{.jobs = jobs});
  try {
    runner.stream_lines(grid, {}, [](std::size_t row, std::string_view) {
      if (row + 1 == kSetupRows) throw StopStream{};
    });
  } catch (const StopStream&) {
  }
  return seconds_since(begin);
}

struct Replay {
  double seconds = 0.0;
  util::Hash128 digest;
  LayerTimes at_into, evaluate, hash, append;
  std::uint64_t hash_sink = 0;
};

/// The stream_lines per-row pipeline, serially, with or without a timer
/// around each call.
template <bool kTimed>
Replay replay(const exec::SweepGrid& grid) {
  Replay out;
  exec::Scenario scenario;
  std::vector<core::CeilingSpec> scratch;
  std::string line;
  util::HashStream digest;
  const std::uint64_t begin = now_ns();
  for (std::size_t row = 0; row < grid.size(); ++row) {
    const std::uint64_t t0 = kTimed ? now_ns() : 0;
    grid.at_into(row, scenario);
    const std::uint64_t t1 = kTimed ? now_ns() : 0;
    const exec::ModelSummary summary =
        exec::evaluate_model_summary(scenario, scratch);
    const std::uint64_t t2 = kTimed ? now_ns() : 0;
    out.hash_sink ^= hash_probe(scenario);
    const std::uint64_t t3 = kTimed ? now_ns() : 0;
    line.clear();
    exec::append_result_line(
        line, scenario.label, scenario.params, summary.parallelism_wall,
        summary.attainable_tps_at_wall, summary.binding_label,
        summary.binding_channel, summary.slot_seconds,
        summary.campaign_makespan_seconds);
    line += '\n';
    if constexpr (kTimed) {
      const std::uint64_t t4 = now_ns();
      out.at_into.add(t1 - t0);
      out.evaluate.add(t2 - t1);
      out.hash.add(t3 - t2);
      out.append.add(t4 - t3);
    }
    digest.bytes(line.data(), line.size());
  }
  out.seconds = seconds_since(begin);
  out.digest = digest.digest();
  return out;
}

}  // namespace

void run_sweep_campaign(const Args& args, Result& result) {
  const Campaign campaign = make_campaign(args.seed);
  const int jobs = nproc();

  std::vector<double> setup;
  for (int i = 0; i < 25; ++i) setup.push_back(setup_once(campaign, jobs));
  result.metrics["setup_s"] = summarize(setup, "s");

  const exec::SweepGrid grid(campaign.system, campaign.workflow,
                             campaign.axes);
  const auto rows = static_cast<double>(grid.size());
  util::Hash128 reference = stream_pass(grid, jobs).digest;
  if (args.inject == "digest") reference.lo ^= 1;
  const auto check = [&](const Pass& pass, const char* what) {
    result.attempted += pass.rows;
    if (pass.rows != grid.size() || pass.digest != reference)
      result.fail(util::format("%s: %llu rows, digest %s, expected %s", what,
                               static_cast<unsigned long long>(pass.rows),
                               util::to_hex(pass.digest).c_str(),
                               util::to_hex(reference).c_str()),
                  pass.rows);
  };

  const std::uint64_t begin = now_ns();
  const auto more = [&](std::size_t done) {
    return done == 0 || seconds_since(begin) < args.seconds;
  };

  if (!args.trace) {
    // A 1-job pass takes about as long as three nproc passes.  Each round
    // runs both kinds, so slow and fast periods of the machine hit both,
    // and spends most of its time at nproc jobs, the contract metric.
    std::vector<double> tput, tput_j1;
    while (more(tput_j1.size())) {
      for (int i = 0; i < 6; ++i) {
        const Pass wide = stream_pass(grid, jobs);
        check(wide, "stream at nproc jobs");
        tput.push_back(rows / wide.seconds);
      }
      const Pass one = stream_pass(grid, 1);
      check(one, "stream at 1 job");
      tput_j1.push_back(rows / one.seconds);
    }
    result.metrics["throughput"] = summarize(tput, "1/s");
    result.metrics["throughput_j1"] = summarize(tput_j1, "1/s");
    return;
  }

  const double timer_ns = timer_overhead_ns();
  std::vector<double> item, untraced, traced, at_into, evaluate, hash, append;
  CacheCounts cache;
  while (more(item.size())) {
    const Pass one = stream_pass(grid, 1);
    check(one, "stream at 1 job");
    item.push_back(one.seconds * 1e9 / rows);
    cache = one.cache;

    // Alternate which replay runs first, so warm-up favours neither.
    const bool untimed_first = item.size() % 2 == 1;
    const auto untimed = [&] {
      untraced.push_back(rows / replay<false>(grid).seconds);
    };
    if (untimed_first) untimed();
    const Replay timed = replay<true>(grid);
    if (!untimed_first) untimed();
    traced.push_back(rows / timed.seconds);
    result.attempted += grid.size();
    if (timed.digest != reference)
      result.fail("traced replay bytes differ from the stream's",
                  grid.size());
    at_into.push_back(timed.at_into.mean_net(timer_ns));
    evaluate.push_back(timed.evaluate.mean_net(timer_ns));
    hash.push_back(timed.hash.mean_net(timer_ns));
    append.push_back(timed.append.mean_net(timer_ns));
  }

  auto& layers = result.layers;
  layers["exec.at_into_ns"] = summarize(at_into, "ns");
  layers["core.evaluate_summary_ns"] = summarize(evaluate, "ns");
  layers["exec.scenario_hash_ns"] = summarize(hash, "ns");
  layers["exec.append_line_ns"] = summarize(append, "ns");
  layers["bench.item_ns"] = summarize(item, "ns");
  close_ledger(result, "sweep_campaign",
               {"exec.at_into_ns", "core.evaluate_summary_ns",
                "exec.scenario_hash_ns", "exec.append_line_ns"},
               "exec.stream_residual_ns");
  layers["exec.cache_hit_ratio"] =
      single(cache.lookups > 0 ? cache.hits / cache.lookups : 0.0, "ratio",
             static_cast<std::size_t>(cache.lookups));
  layers["exec.cache_lookups"] = single(cache.lookups, "count");
  layers["exec.cache_evictions"] = single(cache.evictions, "count");
  layers["bench.trace_overhead_ratio"] =
      single(median(traced) / median(untraced), "ratio", traced.size());
}

}  // namespace perfbench

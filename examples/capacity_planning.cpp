// Capacity planning with the Fig. 2c what-if: trade intra-task parallelism
// against task parallelism for a BGW-like workload.  Doubling nodes per
// task halves the parallelism wall and (under perfect scaling) doubles the
// node ceiling — making makespan targets easier and throughput targets
// harder.  Imperfect scaling erodes the makespan win.
//
// The 2x5 grid fans out over exec::SweepRunner: every (efficiency,
// nodes-per-task) point is evaluated concurrently, and the printed tables
// are byte-identical to the serial version for any job count
// (docs/PARALLELISM.md).

#include <iostream>

#include "analytical/bgw_model.hpp"
#include "core/model.hpp"
#include "exec/sweep.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace wfr;

int main() {
  const core::SystemSpec system = core::SystemSpec::perlmutter_gpu();
  // Start from BGW at 64 nodes/task, planning a campaign of 56 runs.
  core::WorkflowCharacterization base =
      analytical::bgw_characterization(analytical::BgwParams{}, 64);
  base.total_tasks = 56;
  base.parallel_tasks = 28;  // fill the machine with 64-node tasks
  base.makespan_seconds = -1.0;

  std::cout << "Intra-task parallelism sweep for a 56-run BGW campaign on "
            << system.name << "\n\n";

  // Row-major grid: efficiency varies slowest, so the results arrive as
  // one contiguous block of factors per efficiency table.
  const std::vector<double> efficiencies{1.0, 0.8};
  const std::vector<double> factors{0.5, 1.0, 2.0, 4.0, 8.0};
  const std::vector<exec::Scenario> scenarios = exec::expand_grid(
      system, base,
      {{"efficiency", efficiencies}, {"nodes_per_task", factors}});

  exec::SweepRunner runner;
  const std::vector<exec::ModelSummary> results =
      runner.run_models(scenarios);

  std::size_t next = 0;
  for (double efficiency : efficiencies) {
    std::cout << util::format("strong-scaling efficiency %.0f%%:\n",
                              100.0 * efficiency);
    util::TextTable table({"nodes/task", "wall", "node ceiling (1 task)",
                           "best throughput", "campaign makespan"});
    table.set_align(1, util::Align::kRight);
    for (std::size_t i = 0; i < factors.size(); ++i, ++next) {
      const exec::ModelSummary& r = results[next];
      table.add_row(
          {util::format("%d", scenarios[next].workflow.nodes_per_task),
           util::format("%d", r.parallelism_wall),
           util::format_seconds(r.slot_seconds),
           util::format("%.3g tasks/s", r.attainable_tps_at_wall),
           util::format_seconds(r.campaign_makespan_seconds)});
    }
    std::cout << table.str() << "\n";
  }

  std::cout
      << "Reading: more nodes per task -> shorter per-result latency but a\n"
         "lower wall; with imperfect scaling the latency win shrinks while\n"
         "the throughput loss stays - the paper's Fig. 2c caveat.\n";
  return 0;
}

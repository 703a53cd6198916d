// LCLS what-if: sweep the external (detector -> HPC) bandwidth and find
// where the 2020 ten-minute target becomes attainable — the quantitative
// version of the paper's QOS recommendation ("going for a faster computing
// unit is a bad idea; work on network and storage QOS instead").
//
// Also demonstrates the inverse experiment: making the compute 10x faster
// changes nothing while the workflow rides the external ceiling.
//
// Each bandwidth point runs a full simulation, so the points fan out over
// exec::parallel_map.  The printed tables are byte-identical to the
// serial version for any job count (docs/PARALLELISM.md).

#include <iostream>

#include "core/advisor.hpp"
#include "exec/thread_pool.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "workflows/lcls.hpp"

using namespace wfr;

namespace {

/// The good-day scenario at one external bandwidth.
workflows::LclsScenario external_bw_point(double external_bytes_per_second,
                                          const std::string& label) {
  workflows::LclsScenario scenario = workflows::lcls_cori_good_day();
  scenario.label = label;
  scenario.system.external_gbs = external_bytes_per_second;
  return scenario;
}

}  // namespace

int main() {
  const analytical::LclsParams params;

  std::cout << "LCLS on Cori-HSW: external-bandwidth sweep (target: 6 tasks "
               "in 10 min)\n\n";
  util::TextTable table({"external bw", "makespan", "throughput",
                         "attainable at wall", "meets target?"});
  table.set_align(1, util::Align::kRight);
  table.set_align(2, util::Align::kRight);
  table.set_align(3, util::Align::kRight);

  const std::vector<double> bandwidths{0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 25.0};
  std::vector<workflows::LclsScenario> points;
  for (double gbs : bandwidths)
    points.push_back(
        external_bw_point(gbs * util::kGBs, util::format_rate(gbs * util::kGBs)));
  // The counter-experiment as two more points: the good-day baseline (the
  // 5 GB/s sweep point again) and the same day with 10x compute.
  {
    workflows::LclsScenario baseline =
        external_bw_point(5.0 * util::kGBs, "good day");
    points.push_back(baseline);
    workflows::LclsScenario boosted = baseline;
    boosted.label = "good day, 10x compute";
    boosted.system.node.peak_flops *= 10.0;
    points.push_back(boosted);
  }

  exec::ThreadPool pool;
  const std::vector<workflows::LclsStudyResult> results =
      exec::parallel_map<workflows::LclsStudyResult>(
          pool, points.size(), [&points, &params](std::size_t i) {
            return workflows::run_lcls(points[i], params);
          });

  for (std::size_t i = 0; i < bandwidths.size(); ++i) {
    const workflows::LclsStudyResult& r = results[i];
    const double attainable =
        r.model.attainable_tps(r.model.parallelism_wall());
    const bool meets = attainable >= r.model.target_throughput_tps() &&
                       r.model.zone_of(r.model.dots()[0]) ==
                           core::Zone::kGoodMakespanGoodThroughput;
    table.add_row({points[i].label,
                   util::format_seconds(r.trace.makespan_seconds()),
                   util::format("%.2e tasks/s", r.model.dots()[0].tps),
                   util::format("%.2e tasks/s", attainable),
                   meets ? "yes" : "no"});
  }
  std::cout << table.str() << "\n";

  // The counter-experiment: 10x the compute at the observed bandwidth.
  std::cout << "Counter-experiment: 10x faster compute on a good day\n";
  const workflows::LclsStudyResult& base = results[bandwidths.size()];
  const workflows::LclsStudyResult& boosted = results[bandwidths.size() + 1];
  std::cout << util::format(
      "  baseline makespan:      %s\n  10x-compute makespan:  %s\n",
      util::format_seconds(base.trace.makespan_seconds()).c_str(),
      util::format_seconds(boosted.trace.makespan_seconds()).c_str());
  std::cout << "  -> the external ceiling still binds; compute speed is "
               "irrelevant here.\n\n";

  std::cout << core::advise(base.model).to_string();
  return 0;
}

// Every SVG writer checks its write the way every other artifact is
// checked: a write that fails throws util::Error naming the path.
// /dev/full opens for writing but fails every write.  The roofline module
// links every plot writer, so their failure cases live together here.

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/model.hpp"
#include "core/taskview.hpp"
#include "plot/bar_plot.hpp"
#include "plot/gantt_plot.hpp"
#include "plot/roofline_plot.hpp"
#include "roofline/node_roofline.hpp"
#include "util/error.hpp"

namespace wfr {
namespace {

core::RooflineModel sample_model() {
  core::WorkflowCharacterization c;
  c.name = "w";
  c.total_tasks = 4;
  c.parallel_tasks = 2;
  c.flops_per_node = 1e15;
  c.makespan_seconds = 100.0;
  return core::build_model(core::SystemSpec::perlmutter_gpu(), c);
}

core::TaskView sample_view() {
  core::TaskView view;
  core::TaskViewEntry e;
  e.label = "task";
  e.group = "g";
  e.nodes = 1;
  e.ceiling_seconds = 10.0;
  e.measured_seconds = 20.0;
  view.add(e);
  return view;
}

trace::WorkflowTrace sample_trace() {
  trace::WorkflowTrace t("w");
  trace::TaskRecord r;
  r.task = 0;
  r.name = "t";
  r.end_seconds = 1.0;
  t.add_record(std::move(r));
  return t;
}

std::vector<trace::TimeBreakdown> sample_breakdowns() {
  trace::TimeBreakdown b;
  b.scenario = "s";
  b.component("work").seconds = 1.0;
  return {b};
}

TEST(SvgWriters, FailedWriteThrowsNamingThePath) {
  const std::vector<
      std::pair<const char*, std::function<void(const std::string&)>>>
      writers = {
          {"write_roofline_svg",
           [](const std::string& path) {
             plot::write_roofline_svg(sample_model(), path);
           }},
          {"write_task_view_svg",
           [](const std::string& path) {
             plot::write_task_view_svg(sample_view(), path);
           }},
          {"write_gantt_svg",
           [](const std::string& path) {
             plot::write_gantt_svg(sample_trace(), path);
           }},
          {"write_breakdown_svg",
           [](const std::string& path) {
             plot::write_breakdown_svg(sample_breakdowns(), path);
           }},
          {"NodeRoofline::write_svg",
           [](const std::string& path) {
             roofline::NodeRoofline::from_system(
                 core::SystemSpec::perlmutter_gpu())
                 .write_svg(path);
           }},
      };
  for (const auto& [name, write] : writers) {
    SCOPED_TRACE(name);
    try {
      write("/dev/full");
      ADD_FAILURE() << "a failed write did not throw";
    } catch (const util::Error& e) {
      EXPECT_STREQ(e.what(), "cannot write '/dev/full': write failed");
    }
  }
}

}  // namespace
}  // namespace wfr

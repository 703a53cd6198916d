#include "plot/roofline_plot.hpp"

#include <gtest/gtest.h>

#include "core/advisor.hpp"
#include "util/error.hpp"

namespace wfr::plot {
namespace {

core::RooflineModel lcls_model() {
  core::SystemSpec s = core::SystemSpec::cori_haswell();
  s.external_gbs = 5e9;
  core::WorkflowCharacterization c;
  c.name = "lcls";
  c.total_tasks = 6;
  c.parallel_tasks = 5;
  c.nodes_per_task = 32;
  c.dram_bytes_per_node = 32e9;
  c.external_bytes_per_task = 5e12 / 6.0;
  c.fs_bytes_per_task = 5e12 / 6.0;
  c.makespan_seconds = 1020.0;
  c.target_makespan_seconds = 600.0;
  return core::build_model(s, c);
}

TEST(RooflinePlot, ProducesValidSvgWithAllLayers) {
  const std::string svg = render_roofline(lcls_model());
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // Layers present.
  EXPECT_NE(svg.find("unattainable"), std::string::npos);
  EXPECT_NE(svg.find("target zones"), std::string::npos);
  EXPECT_NE(svg.find("Number of Parallel Tasks"), std::string::npos);
  EXPECT_NE(svg.find("Throughput [tasks/s]"), std::string::npos);
  // Ceilings and labels.
  EXPECT_NE(svg.find("System External"), std::string::npos);
  EXPECT_NE(svg.find("System parallelism"), std::string::npos);
  EXPECT_NE(svg.find("Target throughput"), std::string::npos);
  // The measured dot.
  EXPECT_NE(svg.find("measured"), std::string::npos);
}

TEST(RooflinePlot, TitleDefaultsToWorkflowOnSystem) {
  const std::string svg = render_roofline(lcls_model());
  EXPECT_NE(svg.find("lcls on cori-haswell"), std::string::npos);
}

TEST(RooflinePlot, CustomTitleAndNoLabels) {
  RooflinePlotOptions opts;
  opts.title = "Figure 5a";
  const std::string svg = render_roofline(lcls_model(), opts);
  EXPECT_NE(svg.find("Figure 5a"), std::string::npos);
}

TEST(RooflinePlot, NoTargetsMeansNoZones) {
  core::WorkflowCharacterization c;
  c.name = "bgw";
  c.total_tasks = 2;
  c.parallel_tasks = 1;
  c.nodes_per_task = 64;
  c.flops_per_node = 68.6e15;
  c.makespan_seconds = 4184.86;
  const core::RooflineModel model =
      core::build_model(core::SystemSpec::perlmutter_gpu(), c);
  const std::string svg = render_roofline(model);
  EXPECT_EQ(svg.find("target zones"), std::string::npos);
  EXPECT_NE(svg.find("unattainable"), std::string::npos);
}

TEST(RooflinePlot, ProjectedDotsAreOpenCircles) {
  core::RooflineModel model = lcls_model();
  core::Dot d;
  d.label = "projected";
  d.parallel_tasks = 5;
  d.tps = 0.01;
  d.style = "projected";
  model.add_dot(d);
  const std::string svg = render_roofline(model);
  // An open circle uses the surface fill with a stroked outline.
  EXPECT_NE(svg.find("fill=\"#fcfcfb\""), std::string::npos);
}

TEST(RooflinePlot, WriteSvgFile) {
  const std::string path = "/tmp/wfr_test_roofline.svg";
  write_roofline_svg(lcls_model(), path);
  FILE* fp = std::fopen(path.c_str(), "rb");
  ASSERT_NE(fp, nullptr);
  std::fclose(fp);
  std::remove(path.c_str());
}

TEST(TaskViewPlot, RendersEntriesAndWall) {
  core::TaskView view;
  core::TaskViewEntry e;
  e.label = "Epsilon @ 64 nodes";
  e.group = "epsilon";
  e.nodes = 64;
  e.ceiling_seconds = 469.0;
  e.measured_seconds = 1109.0;
  view.add(e);
  core::TaskViewEntry s;
  s.label = "Sigma @ 64 nodes";
  s.group = "sigma";
  s.nodes = 64;
  s.ceiling_seconds = 1299.0;
  s.measured_seconds = 3076.0;
  view.add(s);

  TaskViewPlotOptions opts;
  opts.parallelism_wall = 28;
  const std::string svg = render_task_view(view, opts);
  EXPECT_NE(svg.find("Epsilon @ 64 nodes"), std::string::npos);
  EXPECT_NE(svg.find("Sigma @ 64 nodes"), std::string::npos);
  EXPECT_NE(svg.find("System parallelism @ 28"), std::string::npos);
  // Dotted continuation beyond the wall exists.
  EXPECT_NE(svg.find("stroke-dasharray=\"3 4\""), std::string::npos);
}

TEST(TaskViewPlot, EmptyViewThrows) {
  core::TaskView view;
  EXPECT_THROW(render_task_view(view), util::InvalidArgument);
}

}  // namespace
}  // namespace wfr::plot

#include "plot/gantt_plot.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wfr::plot {
namespace {

trace::WorkflowTrace bgw_trace() {
  trace::WorkflowTrace t("bgw");
  trace::TaskRecord e;
  e.task = 0;
  e.name = "epsilon";
  e.nodes = 64;
  e.start_seconds = 0.0;
  e.end_seconds = 1109.0;
  e.spans.push_back(trace::Span{trace::Phase::kFsRead, 0.0, 10.0});
  e.spans.push_back(trace::Span{trace::Phase::kWork, 10.0, 1109.0});
  t.add_record(std::move(e));
  trace::TaskRecord s;
  s.task = 1;
  s.name = "sigma";
  s.nodes = 64;
  s.start_seconds = 1109.0;
  s.end_seconds = 4185.0;
  s.spans.push_back(trace::Span{trace::Phase::kWork, 1109.0, 4185.0});
  t.add_record(std::move(s));
  return t;
}

TEST(GanttPlot, RendersLanesInStartOrder) {
  const std::string svg = render_gantt(bgw_trace());
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  const std::size_t eps = svg.find(">epsilon<");
  const std::size_t sig = svg.find(">sigma<");
  ASSERT_NE(eps, std::string::npos);
  ASSERT_NE(sig, std::string::npos);
  EXPECT_LT(eps, sig);
}

TEST(GanttPlot, PhaseLegendListsOnlyPresentPhases) {
  const std::string svg = render_gantt(bgw_trace());
  EXPECT_NE(svg.find(">fs_read<"), std::string::npos);
  EXPECT_NE(svg.find(">work<"), std::string::npos);
  EXPECT_EQ(svg.find(">external_in<"), std::string::npos);
}

TEST(GanttPlot, CriticalPathOverlayDrawsPolyline) {
  GanttPlotOptions opts;
  opts.critical_path = {0, 1};
  const std::string svg = render_gantt(bgw_trace(), opts);
  EXPECT_NE(svg.find("<polyline"), std::string::npos);
}

TEST(GanttPlot, EmptyTraceThrows) {
  trace::WorkflowTrace empty("x");
  EXPECT_THROW(render_gantt(empty), util::InvalidArgument);
}

TEST(GanttPlot, HeightGrowsWithLaneCount) {
  trace::WorkflowTrace many("m");
  for (int i = 0; i < 10; ++i) {
    trace::TaskRecord r;
    r.task = static_cast<dag::TaskId>(i);
    r.name = "t" + std::to_string(i);
    r.start_seconds = i;
    r.end_seconds = i + 1;
    many.add_record(std::move(r));
  }
  const std::string small = render_gantt(bgw_trace());
  const std::string large = render_gantt(many);
  auto height_of = [](const std::string& svg) {
    const std::size_t pos = svg.find("height=\"");
    return std::stod(svg.substr(pos + 8));
  };
  EXPECT_GT(height_of(large), height_of(small));
}

TEST(GanttPlot, WriteFile) {
  const std::string path = "/tmp/wfr_test_gantt.svg";
  write_gantt_svg(bgw_trace(), path);
  FILE* fp = std::fopen(path.c_str(), "rb");
  ASSERT_NE(fp, nullptr);
  std::fclose(fp);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wfr::plot

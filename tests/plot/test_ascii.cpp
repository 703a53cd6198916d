#include "plot/ascii.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wfr::plot {
namespace {

core::RooflineModel bgw_model() {
  core::WorkflowCharacterization c;
  c.name = "bgw";
  c.total_tasks = 2;
  c.parallel_tasks = 1;
  c.nodes_per_task = 64;
  c.flops_per_node = (1164e15 + 3226e15) / 64.0;
  c.fs_bytes_per_task = 35e9;
  c.makespan_seconds = 4184.86;
  return core::build_model(core::SystemSpec::perlmutter_gpu(), c);
}

TEST(AsciiRoofline, ContainsGlyphsAndKey) {
  const std::string art = ascii_roofline(bgw_model());
  EXPECT_NE(art.find('/'), std::string::npos);   // diagonal compute ceiling
  EXPECT_NE(art.find('-'), std::string::npos);   // horizontal fs ceiling
  EXPECT_NE(art.find('|'), std::string::npos);   // wall
  EXPECT_NE(art.find('#'), std::string::npos);   // unattainable shading
  EXPECT_NE(art.find('O'), std::string::npos);   // measured dot
  EXPECT_NE(art.find("key:"), std::string::npos);
  EXPECT_NE(art.find("bgw on perlmutter-gpu"), std::string::npos);
}

TEST(AsciiRoofline, ListsCeilingLabelsAndDots) {
  const std::string art = ascii_roofline(bgw_model());
  EXPECT_NE(art.find("Compute"), std::string::npos);
  EXPECT_NE(art.find("File System"), std::string::npos);
  EXPECT_NE(art.find("dot measured"), std::string::npos);
}

TEST(AsciiRoofline, RespectsCanvasSize) {
  const std::string art = ascii_roofline(bgw_model());
  // 22 canvas rows of gutter(10) + width(72) chars follow the title.
  std::size_t pos = art.find('\n') + 1;  // skip title
  for (int row = 0; row < 22; ++row) {
    const std::size_t line_end = art.find('\n', pos);
    ASSERT_NE(line_end, std::string::npos);
    EXPECT_EQ(line_end - pos, 82u) << "row " << row;
    pos = line_end + 1;
  }
  // Then the x axis: gutter plus 72 dashes.
  EXPECT_EQ(art.substr(pos, 83), std::string(10, ' ') + std::string(72, '-') +
                                     "\n");
}

TEST(AsciiRoofline, TargetsRenderAsTildes) {
  core::WorkflowCharacterization c;
  c.name = "targeted";
  c.total_tasks = 6;
  c.parallel_tasks = 5;
  c.nodes_per_task = 32;
  c.dram_bytes_per_node = 32e9;
  c.external_bytes_per_task = 5e12 / 6.0;
  c.makespan_seconds = 1020.0;
  c.target_makespan_seconds = 600.0;
  core::SystemSpec s = core::SystemSpec::cori_haswell();
  s.external_gbs = 5e9;
  const std::string art = ascii_roofline(core::build_model(s, c));
  EXPECT_NE(art.find('~'), std::string::npos);
  EXPECT_NE(art.find("~ target"), std::string::npos);
}

TEST(AsciiGantt, BarsReflectOrderAndPhases) {
  trace::WorkflowTrace t("w");
  trace::TaskRecord a;
  a.task = 0;
  a.name = "load";
  a.start_seconds = 0.0;
  a.end_seconds = 10.0;
  a.spans.push_back(trace::Span{trace::Phase::kExternalIn, 0.0, 8.0});
  a.spans.push_back(trace::Span{trace::Phase::kWork, 8.0, 10.0});
  t.add_record(std::move(a));
  trace::TaskRecord b;
  b.task = 1;
  b.name = "merge";
  b.start_seconds = 10.0;
  b.end_seconds = 12.0;
  t.add_record(std::move(b));

  const std::string art = ascii_gantt(t);
  EXPECT_NE(art.find("load"), std::string::npos);
  EXPECT_NE(art.find("merge"), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);  // I/O segment
  EXPECT_NE(art.find('='), std::string::npos);  // work segment
  EXPECT_LT(art.find("load"), art.find("merge"));
}

TEST(AsciiGantt, Validation) {
  trace::WorkflowTrace empty("x");
  EXPECT_THROW(ascii_gantt(empty), util::InvalidArgument);
}

}  // namespace
}  // namespace wfr::plot

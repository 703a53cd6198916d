#include "plot/svg.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wfr::plot {
namespace {

TEST(Svg, DocumentHasHeaderAndFooter) {
  SvgDocument svg(100, 50);
  const std::string s = svg.str();
  EXPECT_NE(s.find("<svg xmlns=\"http://www.w3.org/2000/svg\""),
            std::string::npos);
  EXPECT_NE(s.find("width=\"100\" height=\"50\""), std::string::npos);
  EXPECT_NE(s.find("</svg>"), std::string::npos);
}

TEST(Svg, RejectsDegenerateDimensions) {
  EXPECT_THROW(SvgDocument(0, 10), util::InvalidArgument);
  EXPECT_THROW(SvgDocument(10, -1), util::InvalidArgument);
}

TEST(Svg, LineElement) {
  SvgDocument svg(10, 10);
  svg.line(1, 2, 3, 4, Style{.stroke = "#000", .stroke_width = 2.0});
  const std::string s = svg.str();
  EXPECT_NE(s.find("<line x1=\"1\" y1=\"2\" x2=\"3\" y2=\"4\""),
            std::string::npos);
  EXPECT_NE(s.find("stroke=\"#000\""), std::string::npos);
  EXPECT_NE(s.find("stroke-width=\"2\""), std::string::npos);
}

TEST(Svg, DashAndOpacityOnlyWhenSet) {
  SvgDocument svg(10, 10);
  svg.line(0, 0, 1, 1, Style{.stroke = "#000"});
  EXPECT_EQ(svg.str().find("dasharray"), std::string::npos);
  EXPECT_EQ(svg.str().find("opacity"), std::string::npos);
  svg.line(0, 0, 1, 1, Style{.stroke = "#000", .dash = "6 4", .opacity = 0.5});
  EXPECT_NE(svg.str().find("stroke-dasharray=\"6 4\""), std::string::npos);
  EXPECT_NE(svg.str().find("opacity=\"0.5\""), std::string::npos);
}

TEST(Svg, PolylineAndPolygon) {
  SvgDocument svg(10, 10);
  svg.polyline({{0, 0}, {1, 1}, {2, 0}}, Style{.stroke = "#111"});
  svg.polygon({{0, 0}, {1, 1}, {2, 0}}, Style{.fill = "#222"});
  const std::string s = svg.str();
  EXPECT_NE(s.find("<polyline points=\"0,0 1,1 2,0\""), std::string::npos);
  EXPECT_NE(s.find("<polygon points=\"0,0 1,1 2,0\""), std::string::npos);
}

TEST(Svg, DegeneratePolyShapesAreDropped) {
  SvgDocument svg(10, 10);
  svg.polyline({{0, 0}}, Style{.stroke = "#111"});
  svg.polygon({{0, 0}, {1, 1}}, Style{.fill = "#222"});
  const std::string s = svg.str();
  EXPECT_EQ(s.find("polyline"), std::string::npos);
  EXPECT_EQ(s.find("polygon"), std::string::npos);
}

TEST(Svg, RectWithCornerRadius) {
  SvgDocument svg(10, 10);
  svg.rect(1, 2, 3, 4, Style{.fill = "#333"}, 2.5);
  EXPECT_NE(svg.str().find("rx=\"2.5\""), std::string::npos);
}

TEST(Svg, TextEscapesContent) {
  SvgDocument svg(10, 10);
  svg.text(0, 0, "a < b & c", TextStyle{});
  EXPECT_NE(svg.str().find("a &lt; b &amp; c"), std::string::npos);
}

TEST(Svg, TextAnchorsAndRotation) {
  SvgDocument svg(10, 10);
  svg.text(5, 5, "mid", TextStyle{.anchor = Anchor::kMiddle});
  svg.text(5, 5, "rot", TextStyle{.rotate = -90.0});
  const std::string s = svg.str();
  EXPECT_NE(s.find("text-anchor=\"middle\""), std::string::npos);
  EXPECT_NE(s.find("rotate(-90 5 5)"), std::string::npos);
}

TEST(Svg, CommentsAreSanitized) {
  SvgDocument svg(10, 10);
  svg.comment("a--b");
  EXPECT_NE(svg.str().find("<!-- a__b -->"), std::string::npos);
}

}  // namespace
}  // namespace wfr::plot

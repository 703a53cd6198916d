#include "plot/svg.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace wfr::plot {

namespace {
// Compact numeric formatting for coordinates.
std::string num(double v) {
  std::string s = util::format("%.2f", v);
  // Trim trailing zeros / dot.
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s.empty() ? "0" : s;
}
}  // namespace

SvgDocument::SvgDocument(double width, double height)
    : width_(width), height_(height) {
  util::require(width > 0.0 && height > 0.0,
                "SVG dimensions must be positive");
}

std::string SvgDocument::style_attrs(const Style& style) {
  std::string out = util::format(
      "stroke=\"%s\" stroke-width=\"%s\" fill=\"%s\"", style.stroke.c_str(),
      num(style.stroke_width).c_str(), style.fill.c_str());
  if (!style.dash.empty())
    out += util::format(" stroke-dasharray=\"%s\"", style.dash.c_str());
  if (style.opacity != 1.0)
    out += util::format(" opacity=\"%s\"", num(style.opacity).c_str());
  return out;
}

void SvgDocument::line(double x1, double y1, double x2, double y2,
                       const Style& style) {
  elements_.push_back(util::format(
      "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" %s/>", num(x1).c_str(),
      num(y1).c_str(), num(x2).c_str(), num(y2).c_str(),
      style_attrs(style).c_str()));
}

void SvgDocument::polyline(
    const std::vector<std::pair<double, double>>& points, const Style& style) {
  if (points.size() < 2) return;
  std::string pts;
  for (const auto& [x, y] : points) {
    if (!pts.empty()) pts += ' ';
    pts += num(x) + "," + num(y);
  }
  elements_.push_back(util::format("<polyline points=\"%s\" %s/>",
                                   pts.c_str(), style_attrs(style).c_str()));
}

void SvgDocument::polygon(
    const std::vector<std::pair<double, double>>& points, const Style& style) {
  if (points.size() < 3) return;
  std::string pts;
  for (const auto& [x, y] : points) {
    if (!pts.empty()) pts += ' ';
    pts += num(x) + "," + num(y);
  }
  elements_.push_back(util::format("<polygon points=\"%s\" %s/>", pts.c_str(),
                                   style_attrs(style).c_str()));
}

void SvgDocument::rect(double x, double y, double w, double h,
                       const Style& style, double corner_radius) {
  std::string rx;
  if (corner_radius > 0.0)
    rx = util::format(" rx=\"%s\"", num(corner_radius).c_str());
  elements_.push_back(util::format(
      "<rect x=\"%s\" y=\"%s\" width=\"%s\" height=\"%s\"%s %s/>",
      num(x).c_str(), num(y).c_str(), num(w).c_str(), num(h).c_str(),
      rx.c_str(), style_attrs(style).c_str()));
}

void SvgDocument::circle(double cx, double cy, double r, const Style& style) {
  elements_.push_back(util::format(
      "<circle cx=\"%s\" cy=\"%s\" r=\"%s\" %s/>", num(cx).c_str(),
      num(cy).c_str(), num(r).c_str(), style_attrs(style).c_str()));
}

void SvgDocument::text(double x, double y, std::string_view content,
                       const TextStyle& style) {
  const char* anchor = "start";
  if (style.anchor == Anchor::kMiddle) anchor = "middle";
  if (style.anchor == Anchor::kEnd) anchor = "end";
  std::string attrs = util::format(
      "x=\"%s\" y=\"%s\" font-size=\"%s\" fill=\"%s\" text-anchor=\"%s\" "
      "font-family=\"-apple-system, 'Segoe UI', Helvetica, Arial, sans-serif\"",
      num(x).c_str(), num(y).c_str(), num(style.size).c_str(),
      style.fill.c_str(), anchor);
  if (style.bold) attrs += " font-weight=\"600\"";
  if (style.italic) attrs += " font-style=\"italic\"";
  if (style.rotate != 0.0)
    attrs += util::format(" transform=\"rotate(%s %s %s)\"",
                          num(style.rotate).c_str(), num(x).c_str(),
                          num(y).c_str());
  elements_.push_back(util::format("<text %s>%s</text>", attrs.c_str(),
                                   util::xml_escape(content).c_str()));
}

void SvgDocument::comment(std::string_view text) {
  elements_.push_back(
      util::format("<!-- %s -->",
                   util::replace_all(text, "--", "__").c_str()));
}

std::string SvgDocument::str() const {
  std::string out = util::format(
      "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%s\" height=\"%s\" "
      "viewBox=\"0 0 %s %s\">\n",
      num(width_).c_str(), num(height_).c_str(), num(width_).c_str(),
      num(height_).c_str());
  for (const std::string& e : elements_) {
    out += e;
    out += '\n';
  }
  out += "</svg>\n";
  return out;
}

}  // namespace wfr::plot

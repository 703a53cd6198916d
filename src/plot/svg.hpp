#pragma once
// Minimal SVG document writer: the visualization backend for the Workflow
// Roofline figures.  Produces standalone .svg files with no external
// dependencies (fonts fall back to the system sans-serif stack).

#include <string>
#include <string_view>
#include <vector>

namespace wfr::plot {

/// Stroke/fill styling for a shape.
struct Style {
  std::string stroke = "none";
  double stroke_width = 1.0;
  std::string fill = "none";
  /// SVG dash pattern, e.g. "6 4"; empty means solid.
  std::string dash;
  double opacity = 1.0;
};

/// Text anchoring along the x direction.
enum class Anchor { kStart, kMiddle, kEnd };

/// Text styling.
struct TextStyle {
  double size = 12.0;
  std::string fill = "#0b0b0b";
  Anchor anchor = Anchor::kStart;
  bool bold = false;
  bool italic = false;
  /// Rotation in degrees around the text origin (e.g. -90 for y labels).
  double rotate = 0.0;
};

/// An SVG document under construction.  All coordinates are pixels with the
/// origin at the top left.
class SvgDocument {
 public:
  SvgDocument(double width, double height);

  void line(double x1, double y1, double x2, double y2, const Style& style);
  void polyline(const std::vector<std::pair<double, double>>& points,
                const Style& style);
  /// Closed polygon (adds "Z").
  void polygon(const std::vector<std::pair<double, double>>& points,
               const Style& style);
  void rect(double x, double y, double w, double h, const Style& style,
            double corner_radius = 0.0);
  void circle(double cx, double cy, double r, const Style& style);
  void text(double x, double y, std::string_view content,
            const TextStyle& style);
  /// A comment in the output (useful for marking sections).
  void comment(std::string_view text);

  /// Finalizes the document.
  std::string str() const;

 private:
  double width_;
  double height_;
  std::vector<std::string> elements_;

  static std::string style_attrs(const Style& style);
};

}  // namespace wfr::plot

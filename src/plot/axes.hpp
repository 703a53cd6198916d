#pragma once
// Axis scales and tick generation for the figure renderers.

#include <string>
#include <vector>

namespace wfr::plot {

/// Maps a positive data domain [lo, hi] to a pixel range logarithmically.
/// Pixel ranges may be inverted (hi_px < lo_px) for y axes.
class LogScale {
 public:
  LogScale(double domain_lo, double domain_hi, double range_lo,
           double range_hi);

  /// Pixel position of `value` (values are clamped into the domain).
  double operator()(double value) const;

  /// Decade ticks (powers of 10) inside the domain, inclusive of the
  /// nearest decades just outside when the domain spans < 1 decade.
  std::vector<double> decade_ticks() const;

 private:
  double domain_lo_;
  double domain_hi_;
  double range_lo_;
  double range_hi_;
  double log_lo_;
  double log_hi_;
};

/// Maps a data domain [lo, hi] to a pixel range linearly.
class LinearScale {
 public:
  LinearScale(double domain_lo, double domain_hi, double range_lo,
              double range_hi);

  double operator()(double value) const;

  /// About `target_count` round-valued ticks inside the domain.
  std::vector<double> ticks(int target_count = 6) const;

 private:
  double domain_lo_;
  double domain_hi_;
  double range_lo_;
  double range_hi_;
};

/// Short label for an axis value: "1e-3", "0.01", "10", "1k", "28".
std::string tick_label(double value);

}  // namespace wfr::plot

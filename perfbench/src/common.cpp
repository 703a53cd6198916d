#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "util/strings.hpp"

namespace perfbench {

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
  }
  return 0.0;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  const double unit = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * unit;
}

double Rng::log_uniform(double lo, double hi) {
  return std::exp(uniform(std::log(lo), std::log(hi)));
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(next() % n);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Metric summarize(const std::vector<double>& samples, const std::string& unit) {
  Metric m;
  m.unit = unit;
  m.n = samples.size();
  m.value = median(samples);
  if (samples.size() > 1 && m.value != 0.0)
    m.spread = (quantile(samples, 0.75) - quantile(samples, 0.25)) /
               std::fabs(m.value);
  return m;
}

Metric single(double value, const std::string& unit, std::size_t n) {
  Metric m;
  m.value = value;
  m.unit = unit;
  m.n = n;
  return m;
}

double LayerTimes::mean_net(double timer_ns) const {
  return std::max(0.0, mean(ns_) - timer_ns);
}

double timer_overhead_ns() {
  std::vector<double> samples;
  samples.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t a = now_ns();
    const std::uint64_t b = now_ns();
    samples.push_back(static_cast<double>(b - a));
  }
  return median(samples);
}

void Result::fail(const std::string& reason, std::uint64_t count) {
  failed += count;
  if (failures.size() < 16) failures.push_back(reason);
}

void close_ledger(Result& result, const std::string& workload,
                  const std::vector<std::string>& rows,
                  const std::string& residual) {
  const Metric item = result.layers.at("bench.item_ns");
  double sum = 0.0;
  double binding = 0.0;
  for (const std::string& row : rows) {
    const double ns = result.layers.at(row).value;
    sum += ns;
    binding = std::max(binding, ns);
  }
  // Timer jitter may push a near-zero residual slightly negative; rows
  // that overshoot the item by more than a quarter are a broken ledger.
  const double rest = item.value - sum;
  if (!(item.value > 0.0) || rest < -0.25 * item.value) {
    result.fail(wfr::util::format(
        "%s ledger does not add up: item %.1f ns, layer rows %.1f ns",
        workload.c_str(), item.value, sum));
  }
  result.layers[residual] = single(rest, "ns", item.n);
  result.layers["bench.residual_ns"] = single(rest, "ns", item.n);
  result.layers["bench.binding_layer_ns"] = single(binding, "ns", item.n);
  result.layers["bench.binding_share"] =
      single(item.value > 0.0 ? binding / item.value : 0.0, "ratio", item.n);
}

}  // namespace perfbench

#include "trace/summary.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace wfr::trace {

double TimeBreakdown::total_seconds() const {
  double total = 0.0;
  for (const BreakdownComponent& c : components) total += c.seconds;
  return total;
}

BreakdownComponent& TimeBreakdown::component(const std::string& label) {
  for (BreakdownComponent& c : components)
    if (c.label == label) return c;
  components.push_back(BreakdownComponent{label, 0.0});
  return components.back();
}

const BreakdownComponent& TimeBreakdown::component(
    const std::string& label) const {
  for (const BreakdownComponent& c : components)
    if (c.label == label) return c;
  throw util::NotFound("no breakdown component '" + label + "'");
}

namespace {

/// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> intervals) {
  if (intervals.empty()) return 0.0;
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_start = intervals[0].first;
  double cur_end = intervals[0].second;
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    if (intervals[i].first > cur_end) {
      total += cur_end - cur_start;
      cur_start = intervals[i].first;
      cur_end = intervals[i].second;
    } else {
      cur_end = std::max(cur_end, intervals[i].second);
    }
  }
  return total + (cur_end - cur_start);
}

}  // namespace

TimeBreakdown breakdown_by_phase(const WorkflowTrace& trace, bool wall_clock) {
  TimeBreakdown out;
  out.scenario = trace.name();
  for (Phase p : {Phase::kOverhead, Phase::kExternalIn, Phase::kFsRead,
                  Phase::kWork, Phase::kFsWrite}) {
    double seconds = 0.0;
    if (wall_clock) {
      std::vector<std::pair<double, double>> intervals;
      for (const TaskRecord& r : trace.records())
        for (const Span& s : r.spans)
          if (s.phase == p && s.duration() > 0.0)
            intervals.emplace_back(s.start_seconds, s.end_seconds);
      seconds = union_length(std::move(intervals));
    } else {
      seconds = trace.total_time_in_phase(p);
    }
    if (seconds > 0.0)
      out.components.push_back(BreakdownComponent{phase_name(p), seconds});
  }
  return out;
}

double IoChannelReport::achieved_bandwidth() const {
  return busy_seconds > 0.0 ? bytes / busy_seconds : 0.0;
}

IoReport io_report(const WorkflowTrace& trace) {
  IoReport report;
  struct ChannelSpec {
    const char* name;
    Phase phase;
    double ChannelCounters::* volume;
  };
  const ChannelSpec specs[] = {
      {"external_in", Phase::kExternalIn, &ChannelCounters::external_in_bytes},
      {"fs_read", Phase::kFsRead, &ChannelCounters::fs_read_bytes},
      {"fs_write", Phase::kFsWrite, &ChannelCounters::fs_write_bytes},
  };
  for (const ChannelSpec& spec : specs) {
    IoChannelReport c;
    c.channel = spec.name;
    std::vector<std::pair<double, double>> intervals;
    for (const TaskRecord& r : trace.records()) {
      const double volume = r.counters.*spec.volume;
      if (volume > 0.0) {
        c.bytes += volume;
        ++c.task_count;
      }
      for (const Span& s : r.spans)
        if (s.phase == spec.phase && s.duration() > 0.0)
          intervals.emplace_back(s.start_seconds, s.end_seconds);
    }
    c.busy_seconds = union_length(std::move(intervals));
    report.channels.push_back(std::move(c));
  }
  return report;
}

std::string describe_trace(const WorkflowTrace& trace) {
  std::string out = util::format("workflow '%s': %zu tasks, makespan %s\n",
                                 trace.name().c_str(),
                                 trace.records().size(),
                                 util::format_seconds(trace.makespan_seconds()).c_str());
  for (const TaskRecord& r : trace.records()) {
    out += util::format("  %-20s nodes=%-5d [%s, %s] %s\n", r.name.c_str(),
                        r.nodes,
                        util::format_seconds(r.start_seconds).c_str(),
                        util::format_seconds(r.end_seconds).c_str(),
                        describe(r.counters).c_str());
  }
  return out;
}

}  // namespace wfr::trace

#include "trace/timeline.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace wfr::trace {

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kOverhead: return "overhead";
    case Phase::kExternalIn: return "external_in";
    case Phase::kFsRead: return "fs_read";
    case Phase::kWork: return "work";
    case Phase::kFsWrite: return "fs_write";
  }
  return "?";
}

Phase parse_phase(const std::string& name) {
  for (Phase p : {Phase::kOverhead, Phase::kExternalIn, Phase::kFsRead,
                  Phase::kWork, Phase::kFsWrite}) {
    if (name == phase_name(p)) return p;
  }
  throw util::ParseError("unknown phase name '" + name + "'");
}

double TaskRecord::time_in_phase(Phase phase) const {
  double total = 0.0;
  for (const Span& s : spans)
    if (s.phase == phase) total += s.duration();
  return total;
}

void WorkflowTrace::add_record(TaskRecord record) {
  util::require(record.end_seconds >= record.start_seconds,
                "task record must not end before it starts");
  for (const Span& s : record.spans)
    util::require(s.end_seconds >= s.start_seconds,
                  "span must not end before it starts");
  records_.push_back(std::move(record));
}

double WorkflowTrace::makespan_seconds() const {
  if (records_.empty()) return 0.0;
  double first = records_.front().start_seconds;
  double last = records_.front().end_seconds;
  for (const TaskRecord& r : records_) {
    first = std::min(first, r.start_seconds);
    last = std::max(last, r.end_seconds);
  }
  return last - first;
}

ChannelCounters WorkflowTrace::total_counters() const {
  ChannelCounters total;
  for (const TaskRecord& r : records_) total += r.counters;
  return total;
}

double WorkflowTrace::total_time_in_phase(Phase phase) const {
  double total = 0.0;
  for (const TaskRecord& r : records_) total += r.time_in_phase(phase);
  return total;
}

int WorkflowTrace::peak_concurrency() const {
  // Sweep over start/end events.
  std::vector<std::pair<double, int>> events;
  events.reserve(records_.size() * 2);
  for (const TaskRecord& r : records_) {
    if (r.duration() <= 0.0) continue;
    events.emplace_back(r.start_seconds, +1);
    events.emplace_back(r.end_seconds, -1);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;  // ends before starts at ties
            });
  int depth = 0, peak = 0;
  for (const auto& [t, d] : events) {
    depth += d;
    peak = std::max(peak, depth);
  }
  return peak;
}

util::Json WorkflowTrace::to_json() const {
  util::JsonObject root;
  root.set("name", util::Json(name_));
  util::JsonArray tasks;
  for (const TaskRecord& r : records_) {
    util::JsonObject t;
    t.set("task", util::Json(static_cast<std::int64_t>(r.task)));
    t.set("name", util::Json(r.name));
    if (!r.kind.empty()) t.set("kind", util::Json(r.kind));
    t.set("nodes", util::Json(r.nodes));
    t.set("start", util::Json(r.start_seconds));
    t.set("end", util::Json(r.end_seconds));
    util::JsonArray spans;
    for (const Span& s : r.spans) {
      util::JsonObject sp;
      sp.set("phase", util::Json(phase_name(s.phase)));
      sp.set("start", util::Json(s.start_seconds));
      sp.set("end", util::Json(s.end_seconds));
      spans.emplace_back(std::move(sp));
    }
    t.set("spans", util::Json(std::move(spans)));
    util::JsonObject c;
    const ChannelCounters& cc = r.counters;
    auto set_nonzero = [&c](const char* key, double v) {
      if (v != 0.0) c.set(key, util::Json(v));
    };
    set_nonzero("external_in", cc.external_in_bytes);
    set_nonzero("fs_read", cc.fs_read_bytes);
    set_nonzero("fs_write", cc.fs_write_bytes);
    set_nonzero("network", cc.network_bytes);
    set_nonzero("flops", cc.flops);
    set_nonzero("dram", cc.dram_bytes);
    set_nonzero("hbm", cc.hbm_bytes);
    set_nonzero("pcie", cc.pcie_bytes);
    t.set("counters", util::Json(std::move(c)));
    tasks.emplace_back(std::move(t));
  }
  root.set("tasks", util::Json(std::move(tasks)));
  return util::Json(std::move(root));
}

WorkflowTrace WorkflowTrace::from_json(const util::Json& json) {
  constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  WorkflowTrace trace(json.string_or("name", ""));
  for (const util::Json& t : json.at("tasks").as_array()) {
    TaskRecord r;
    r.task = static_cast<dag::TaskId>(t.at("task").as_int_in(
        0, std::numeric_limits<dag::TaskId>::max(), "task"));
    r.name = t.at("name").as_string();
    r.kind = t.string_or("kind", "");
    r.nodes =
        static_cast<int>(t.at("nodes").as_int_in(kIntMin, kIntMax, "nodes"));
    r.start_seconds = t.at("start").as_number();
    r.end_seconds = t.at("end").as_number();
    const util::Json* attempts = t.as_object().find("attempts");
    if (attempts != nullptr &&
        !(attempts->is_number() && attempts->as_number() == 1.0))
      throw util::ParseError("task '" + r.name +
                             "': attempts must be 1 or absent, got " +
                             attempts->dump());
    for (const util::Json& sp : t.at("spans").as_array()) {
      Span s;
      s.phase = parse_phase(sp.at("phase").as_string());
      s.start_seconds = sp.at("start").as_number();
      s.end_seconds = sp.at("end").as_number();
      r.spans.push_back(s);
    }
    const util::Json& c = t.at("counters");
    r.counters.external_in_bytes = c.number_or("external_in", 0.0);
    r.counters.fs_read_bytes = c.number_or("fs_read", 0.0);
    r.counters.fs_write_bytes = c.number_or("fs_write", 0.0);
    r.counters.network_bytes = c.number_or("network", 0.0);
    r.counters.flops = c.number_or("flops", 0.0);
    r.counters.dram_bytes = c.number_or("dram", 0.0);
    r.counters.hbm_bytes = c.number_or("hbm", 0.0);
    r.counters.pcie_bytes = c.number_or("pcie", 0.0);
    trace.add_record(std::move(r));
  }
  return trace;
}

}  // namespace wfr::trace

#pragma once
// Execution timelines: per-task phase spans plus channel counters, emitted
// by the simulator (or importable from real logs).  This is the input to
// workflow characterization, time-breakdown figures, and Gantt charts.

#include <string>
#include <vector>

#include "dag/task.hpp"
#include "trace/counters.hpp"
#include "util/json.hpp"

namespace wfr::trace {

/// Execution phases of one task, in canonical order.
enum class Phase {
  kOverhead,    // bash/srun/python control-flow overhead
  kExternalIn,  // loading data into the system from external storage
  kFsRead,      // reading from the shared filesystem
  kWork,        // node-local compute/memory/PCIe plus MPI communication
  kFsWrite,     // writing results to the shared filesystem
};

/// Stable lowercase name for a phase ("overhead", "external_in", ...).
const char* phase_name(Phase phase);

/// Inverse of phase_name; throws ParseError for unknown names.
Phase parse_phase(const std::string& name);

/// One contiguous interval of one phase of one task.
struct Span {
  Phase phase = Phase::kWork;
  double start_seconds = 0.0;
  double end_seconds = 0.0;

  double duration() const { return end_seconds - start_seconds; }
};

/// The record of one executed task.
struct TaskRecord {
  dag::TaskId task = dag::kInvalidTask;
  std::string name;
  std::string kind;
  int nodes = 1;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  std::vector<Span> spans;
  ChannelCounters counters;

  double duration() const { return end_seconds - start_seconds; }
  /// Total time this task spent in `phase` (sums multiple spans).
  double time_in_phase(Phase phase) const;
};

/// The record of one executed workflow.
class WorkflowTrace {
 public:
  WorkflowTrace() = default;
  explicit WorkflowTrace(std::string workflow_name)
      : name_(std::move(workflow_name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  void add_record(TaskRecord record);

  const std::vector<TaskRecord>& records() const { return records_; }
  bool empty() const { return records_.empty(); }

  /// End of the last task minus start of the first (0 when empty).
  double makespan_seconds() const;

  /// Sum of counters over all tasks.
  ChannelCounters total_counters() const;

  /// Sum over tasks of the time spent in `phase`.
  double total_time_in_phase(Phase phase) const;

  /// Maximum number of tasks running concurrently at any instant.
  int peak_concurrency() const;

  /// Serialization for archival / external tooling.  from_json accepts
  /// a task "attempts" key only when it is 1: the simulator runs each
  /// task once, so a trace that records retries is rejected, not
  /// narrowed.
  util::Json to_json() const;
  static WorkflowTrace from_json(const util::Json& json);

 private:
  std::string name_;
  std::vector<TaskRecord> records_;
};

}  // namespace wfr::trace

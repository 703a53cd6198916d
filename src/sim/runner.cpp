#include "sim/runner.hpp"

#include <algorithm>
#include <array>
#include <memory>

#include "sim/cluster.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace wfr::sim {

namespace {

// Time to move `volume` at `rate`, validating that a demanded channel
// exists on the machine.
double channel_seconds(double volume, double rate, const char* channel,
                       const dag::TaskSpec& task) {
  if (volume <= 0.0) return 0.0;
  util::require(rate > 0.0,
                "task '%s' demands %s but the machine has no such channel",
                task.name.c_str(), channel);
  return volume / rate;
}

}  // namespace

double work_phase_seconds(const dag::TaskSpec& task,
                          const MachineConfig& machine) {
  const dag::ResourceDemand& d = task.demand;
  double t = 0.0;
  t = std::max(t, channel_seconds(d.flops_per_node, machine.node_flops,
                                  "compute flops", task));
  t = std::max(t, channel_seconds(d.dram_bytes_per_node, machine.dram_gbs,
                                  "DRAM bytes", task));
  t = std::max(t, channel_seconds(d.hbm_bytes_per_node, machine.hbm_gbs,
                                  "HBM bytes", task));
  t = std::max(t, channel_seconds(d.pcie_bytes_per_node, machine.pcie_gbs,
                                  "PCIe bytes", task));
  t = std::max(t, channel_seconds(
                      d.network_bytes,
                      machine.nic_gbs * static_cast<double>(task.nodes),
                      "network bytes", task));
  return t;
}

double uncontended_task_seconds(const dag::TaskSpec& task,
                                const MachineConfig& machine) {
  const dag::ResourceDemand& d = task.demand;
  double t = d.overhead_seconds;
  t += channel_seconds(d.external_in_bytes, machine.external_gbs,
                       "external bytes", task);
  t += channel_seconds(d.fs_read_bytes, machine.fs_gbs, "filesystem bytes",
                       task);
  t += work_phase_seconds(task, machine);
  t += channel_seconds(d.fs_write_bytes, machine.fs_gbs, "filesystem bytes",
                       task);
  return std::max(t, task.fixed_duration_seconds);
}

namespace {

// Hard wall on simulated time; guards against configuration errors.
constexpr double kTimeLimitSeconds = 1e12;

/// Drives the execution of one workflow over the event engine.
class Runner {
 public:
  Runner(const dag::WorkflowGraph& graph, const MachineConfig& machine,
         const RunOptions& options)
      : graph_(graph),
        machine_(machine),
        options_(options),
        cluster_(machine.total_nodes) {
    graph_.validate();
    machine_.validate();
    // Shared resources.  Capacities of 0 are modeled as absent; tasks that
    // demand them fail in channel_seconds with a clear message, so here we
    // register resources only when present.
    if (machine_.fs_gbs > 0.0) fs_ = sim_.add_resource("fs", machine_.fs_gbs);
    if (machine_.external_gbs > 0.0)
      external_ = sim_.add_resource("external", machine_.external_gbs);
    for (dag::TaskId id = 0; id < graph_.task_count(); ++id) {
      const dag::TaskSpec& t = graph_.task(id);
      util::require(
          t.nodes <= cluster_.total_nodes(),
          "task '%s' needs %d nodes but the pool has %d", t.name.c_str(),
          t.nodes, cluster_.total_nodes());
      // Fail fast on demands for missing channels.
      (void)uncontended_task_seconds(t, machine_);
    }
    if (options_.observe != nullptr) {
      obs::Observation& ob = *options_.observe;
      if (ob.sample_resources) sim_.attach_probe(&ob.probe);
      tasks_started_ = &ob.registry.counter("runner.tasks_started");
      queue_wait_ = &ob.registry.histogram("runner.queue_wait_seconds");
      for (trace::Phase phase :
           {trace::Phase::kOverhead, trace::Phase::kExternalIn,
            trace::Phase::kFsRead, trace::Phase::kWork,
            trace::Phase::kFsWrite}) {
        phase_hist_[static_cast<std::size_t>(phase)] =
            &ob.registry.histogram(std::string("runner.phase_seconds.") +
                                   trace::phase_name(phase));
      }
    }
  }

  // Fills shared-channel statistics after run(); valid once run returned.
  void fill_stats(RunResult* result) const {
    auto fill = [this](ResourceId id, ChannelStats* stats) {
      if (id == kMissingResource) return;
      stats->busy_seconds = sim_.busy_seconds(id);
      stats->volume_bytes = sim_.completed_volume(id);
      stats->utilization = sim_.utilization(id);
    };
    fill(fs_, &result->filesystem);
    fill(external_, &result->external);
    result->peak_nodes_used = cluster_.peak_used_nodes();
    if (options_.observe != nullptr && options_.observe->sample_resources)
      result->resource_summaries = options_.observe->probe.summaries();
  }

  trace::WorkflowTrace run() {
    trace_.set_name(graph_.name());
    states_.resize(graph_.task_count());
    for (dag::TaskId id = 0; id < graph_.task_count(); ++id) {
      states_[id].waiting_deps =
          static_cast<int>(graph_.predecessors(id).size());
      if (states_[id].waiting_deps == 0) ready_.push_back(id);
    }
    install_background_loads();
    // Kick off initial tasks via a zero-delay event so that all engine
    // invariants hold during callbacks.
    sim_.schedule_after(0.0, [this] { launch_ready_tasks(); });
    sim_.run(kTimeLimitSeconds);
    util::ensure(completed_ == graph_.task_count(),
                 "workflow '%s' deadlocked: %zu of %zu tasks completed",
                 graph_.name().c_str(), completed_, graph_.task_count());
    if (options_.observe != nullptr) export_run_metrics();
    return std::move(trace_);
  }

 private:
  struct TaskState {
    int waiting_deps = 0;
    double phase_start = 0.0;
    /// When the task's dependencies were satisfied (for queue-wait).
    double ready_seconds = 0.0;
    trace::TaskRecord record;
  };

  /// Final self-metric export once the schedule is complete: engine
  /// counters plus run-level workflow gauges.
  void export_run_metrics() {
    obs::Observation& ob = *options_.observe;
    sim_.export_metrics(ob.registry);
    ob.registry.gauge("runner.makespan_seconds")
        .set(trace_.makespan_seconds());
    ob.registry.gauge("runner.peak_nodes_used")
        .set(cluster_.peak_used_nodes());
    ob.registry.counter("runner.tasks_completed").increment(completed_);
  }

  void install_background_loads() {
    for (const BackgroundLoad& load : options_.background) {
      const ResourceId resource =
          load.channel == BackgroundLoad::Channel::kFilesystem ? fs_
                                                               : external_;
      util::require(resource != kMissingResource,
                    "background load targets a channel the machine lacks");
      util::require(load.flows >= 1, "background load needs >= 1 flow");
      util::require(load.start_seconds >= 0.0,
                    "background load start must be >= 0");
      auto ids = std::make_shared<std::vector<FlowId>>();
      sim_.schedule_at(load.start_seconds, [this, resource, load, ids] {
        for (int i = 0; i < load.flows; ++i)
          ids->push_back(sim_.start_background_flow(resource));
      });
      if (load.end_seconds >= 0.0) {
        util::require(load.end_seconds >= load.start_seconds,
                      "background load must not end before it starts");
        sim_.schedule_at(load.end_seconds, [this, ids] {
          for (FlowId id : *ids) sim_.cancel_flow(id);
          ids->clear();
        });
      }
    }
  }

  void launch_ready_tasks() {
    // FCFS with skipping: a large task at the head does not block smaller
    // ones behind it (backfill), mirroring what batch schedulers do once
    // queue wait is excluded.
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t i = 0; i < ready_.size(); ++i) {
        const dag::TaskId id = ready_[i];
        if (!cluster_.try_allocate(graph_.task(id).nodes)) continue;
        ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(i));
        begin_task(id);
        progressed = true;
        break;
      }
    }
  }

  void begin_task(dag::TaskId id) {
    TaskState& st = states_[id];
    const dag::TaskSpec& t = graph_.task(id);
    if (options_.observe != nullptr) {
      tasks_started_->increment();
      queue_wait_->observe(sim_.now() - st.ready_seconds);
    }
    st.record.task = id;
    st.record.name = t.name;
    st.record.kind = t.kind;
    st.record.nodes = t.nodes;
    st.record.start_seconds = sim_.now();
    st.record.counters = trace::counters_from_demand(t.demand, t.nodes);
    st.record.spans.reserve(5);  // one span per phase
    st.phase_start = sim_.now();
    run_overhead(id);
  }

  void end_span(dag::TaskId id, trace::Phase phase) {
    TaskState& st = states_[id];
    if (sim_.now() > st.phase_start) {
      st.record.spans.push_back(
          trace::Span{phase, st.phase_start, sim_.now()});
      if (options_.observe != nullptr)
        phase_hist_[static_cast<std::size_t>(phase)]->observe(
            sim_.now() - st.phase_start);
    }
    st.phase_start = sim_.now();
  }

  void run_overhead(dag::TaskId id) {
    const double overhead = graph_.task(id).demand.overhead_seconds;
    sim_.schedule_after(overhead, [this, id] {
      end_span(id, trace::Phase::kOverhead);
      run_external_in(id);
    });
  }

  // Task flows must never be cancelled: the task's phase chain would stall
  // and the run would end in a misleading "workflow deadlocked" error.
  // Installing this cancellation callback turns that latent state into an
  // immediate, attributable failure at the cancel site.  The closure fits
  // std::function's 16-byte inline buffer, so a flow allocates nothing
  // for it.
  CancelCallback abort_on_cancel(dag::TaskId id, trace::Phase phase) {
    auto on_cancel = [this, id, phase](double remaining) {
      const char* flow = phase == trace::Phase::kExternalIn ? "external-ingress"
                         : phase == trace::Phase::kFsRead   ? "fs-read"
                                                            : "fs-write";
      throw util::InternalError(util::format(
          "task '%s' had its %s flow cancelled mid-run (%g bytes left); "
          "task flows must run to completion",
          graph_.task(id).name.c_str(), flow, remaining));
    };
    static_assert(sizeof(on_cancel) <= 16);
    return on_cancel;
  }

  void run_external_in(dag::TaskId id) {
    const double volume = graph_.task(id).demand.external_in_bytes;
    auto next = [this, id] {
      end_span(id, trace::Phase::kExternalIn);
      run_fs_read(id);
    };
    if (volume > 0.0) {
      sim_.start_flow(external_, volume, next,
                      abort_on_cancel(id, trace::Phase::kExternalIn));
    } else {
      next();
    }
  }

  void run_fs_read(dag::TaskId id) {
    const double volume = graph_.task(id).demand.fs_read_bytes;
    auto next = [this, id] {
      end_span(id, trace::Phase::kFsRead);
      run_work(id);
    };
    if (volume > 0.0) {
      sim_.start_flow(fs_, volume, next,
                      abort_on_cancel(id, trace::Phase::kFsRead));
    } else {
      next();
    }
  }

  void run_work(dag::TaskId id) {
    const dag::TaskSpec& t = graph_.task(id);
    double work = work_phase_seconds(t, machine_);
    if (t.fixed_duration_seconds >= 0.0) {
      // Pad so that, absent contention on the remaining I/O, the total
      // task duration matches the fixed (measured) value.
      const double elapsed = sim_.now() - states_[id].record.start_seconds;
      const double nominal_write =
          t.demand.fs_write_bytes > 0.0
              ? t.demand.fs_write_bytes / machine_.fs_gbs
              : 0.0;
      const double padded =
          t.fixed_duration_seconds - elapsed - nominal_write;
      work = std::max(work, padded);
    }
    sim_.schedule_after(std::max(work, 0.0), [this, id] {
      end_span(id, trace::Phase::kWork);
      run_fs_write(id);
    });
  }

  void run_fs_write(dag::TaskId id) {
    const double volume = graph_.task(id).demand.fs_write_bytes;
    auto next = [this, id] {
      end_span(id, trace::Phase::kFsWrite);
      finish_task(id);
    };
    if (volume > 0.0) {
      sim_.start_flow(fs_, volume, next,
                      abort_on_cancel(id, trace::Phase::kFsWrite));
    } else {
      next();
    }
  }

  void finish_task(dag::TaskId id) {
    TaskState& st = states_[id];
    st.record.end_seconds = sim_.now();
    trace_.add_record(std::move(st.record));
    ++completed_;
    cluster_.release(graph_.task(id).nodes);
    for (dag::TaskId next : graph_.successors(id)) {
      if (--states_[next].waiting_deps == 0) {
        states_[next].ready_seconds = sim_.now();
        ready_.push_back(next);
      }
    }
    launch_ready_tasks();
  }

  static constexpr ResourceId kMissingResource = static_cast<ResourceId>(-1);

  const dag::WorkflowGraph& graph_;
  const MachineConfig& machine_;
  const RunOptions& options_;
  Cluster cluster_;
  Simulator sim_;
  ResourceId fs_ = kMissingResource;
  ResourceId external_ = kMissingResource;
  std::vector<TaskState> states_;
  std::vector<dag::TaskId> ready_;
  std::size_t completed_ = 0;
  trace::WorkflowTrace trace_;
  // Observation instruments, resolved once in the constructor so the hot
  // path pays a pointer indirection, not a registry lookup.  Null when
  // not observing.
  obs::Counter* tasks_started_ = nullptr;
  obs::LogHistogram* queue_wait_ = nullptr;
  std::array<obs::LogHistogram*, 5> phase_hist_{};
};

}  // namespace

trace::WorkflowTrace run_workflow(const dag::WorkflowGraph& graph,
                                  const MachineConfig& machine,
                                  const RunOptions& options) {
  return Runner(graph, machine, options).run();
}

RunResult run_workflow_detailed(const dag::WorkflowGraph& graph,
                                const MachineConfig& machine,
                                const RunOptions& options) {
  Runner runner(graph, machine, options);
  RunResult result;
  result.trace = runner.run();
  runner.fill_stats(&result);
  return result;
}

}  // namespace wfr::sim

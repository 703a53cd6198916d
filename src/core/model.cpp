#include "core/model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace wfr::core {

const char* channel_name(Channel channel) {
  switch (channel) {
    case Channel::kCompute: return "compute";
    case Channel::kDram: return "dram";
    case Channel::kHbm: return "hbm";
    case Channel::kPcie: return "pcie";
    case Channel::kNetwork: return "network";
    case Channel::kOverhead: return "overhead";
    case Channel::kFilesystem: return "filesystem";
    case Channel::kExternal: return "external";
    case Channel::kParallelism: return "parallelism";
    case Channel::kCustom: return "custom";
  }
  return "?";
}

bool is_node_channel(Channel channel) {
  switch (channel) {
    case Channel::kCompute:
    case Channel::kDram:
    case Channel::kHbm:
    case Channel::kPcie:
    case Channel::kNetwork:
      return true;
    default:
      return false;
  }
}

double CeilingSpec::tps_at(double parallel_tasks) const {
  switch (kind) {
    case CeilingKind::kDiagonal:
      return seconds_per_task > 0.0
                 ? parallel_tasks * tasks_per_instance / seconds_per_task
                 : std::numeric_limits<double>::infinity();
    case CeilingKind::kHorizontal:
      return tps_limit;
    case CeilingKind::kWall:
      return std::numeric_limits<double>::infinity();
  }
  return std::numeric_limits<double>::infinity();
}

Ceiling Ceiling::diagonal(Channel channel, std::string label,
                          double seconds_per_task, double tasks_per_instance) {
  util::require(seconds_per_task >= 0.0,
                "diagonal ceiling needs seconds_per_task >= 0");
  util::require(tasks_per_instance > 0.0,
                "diagonal ceiling needs tasks_per_instance > 0");
  return {{.kind = CeilingKind::kDiagonal,
           .channel = channel,
           .seconds_per_task = seconds_per_task,
           .tasks_per_instance = tasks_per_instance},
          std::move(label)};
}

Ceiling Ceiling::horizontal(Channel channel, std::string label,
                            double tps_limit) {
  util::require(tps_limit > 0.0, "horizontal ceiling needs tps_limit > 0");
  return {{.kind = CeilingKind::kHorizontal,
           .channel = channel,
           .tps_limit = tps_limit},
          std::move(label)};
}

Ceiling Ceiling::wall(std::string label, int max_parallel_tasks) {
  util::require(max_parallel_tasks >= 1, "wall needs max_parallel_tasks >= 1");
  return {{.kind = CeilingKind::kWall,
           .channel = Channel::kParallelism,
           .max_parallel_tasks = max_parallel_tasks},
          std::move(label)};
}

const char* bound_class_name(BoundClass bound) {
  switch (bound) {
    case BoundClass::kNodeBound: return "node-bound";
    case BoundClass::kSystemBound: return "system-bound";
    case BoundClass::kParallelismBound: return "parallelism-bound";
    case BoundClass::kControlFlowBound: return "control-flow-bound";
  }
  return "?";
}

const char* zone_name(Zone zone) {
  switch (zone) {
    case Zone::kGoodMakespanGoodThroughput:
      return "good makespan, good throughput";
    case Zone::kGoodMakespanPoorThroughput:
      return "good makespan, poor throughput";
    case Zone::kPoorMakespanGoodThroughput:
      return "poor makespan, good throughput";
    case Zone::kPoorMakespanPoorThroughput:
      return "poor makespan, poor throughput";
  }
  return "?";
}

RooflineModel::RooflineModel(SystemSpec system,
                             WorkflowCharacterization workflow)
    : system_(std::move(system)), workflow_(std::move(workflow)) {
  system_.validate();
  workflow_.validate();
}

void RooflineModel::add_ceiling(Ceiling ceiling) {
  ceilings_.push_back(std::move(ceiling));
}

int RooflineModel::parallelism_wall() const {
  int wall = std::numeric_limits<int>::max();
  for (const Ceiling& c : ceilings_)
    if (c.kind == CeilingKind::kWall)
      wall = std::min(wall, c.max_parallel_tasks);
  util::require(wall != std::numeric_limits<int>::max(),
                "model has no parallelism wall");
  return wall;
}

double RooflineModel::attainable_tps(double parallel_tasks) const {
  return binding_ceiling(parallel_tasks).tps_at(parallel_tasks);
}

const Ceiling& RooflineModel::binding_ceiling(double parallel_tasks) const {
  util::require(parallel_tasks >= 1.0, "parallel_tasks must be >= 1");
  // Tolerate floating-point round-off when callers sample up to the wall.
  const int wall = parallelism_wall();
  util::require(parallel_tasks <= static_cast<double>(wall) * (1.0 + 1e-9),
                "%g parallel tasks exceeds the parallelism wall of %d",
                parallel_tasks, wall);
  const Ceiling* best = nullptr;
  double best_tps = std::numeric_limits<double>::infinity();
  for (const Ceiling& c : ceilings_) {
    if (c.kind == CeilingKind::kWall) continue;
    const double tps = c.tps_at(parallel_tasks);
    if (tps < best_tps) {
      best_tps = tps;
      best = &c;
    }
  }
  util::require(best != nullptr,
                "model has no throughput ceilings (only walls)");
  return *best;
}

double RooflineModel::efficiency(const Dot& dot) const {
  const double attainable = attainable_tps(dot.parallel_tasks);
  util::require(std::isfinite(attainable) && attainable > 0.0,
                "attainable throughput is unbounded; efficiency undefined");
  return dot.tps / attainable;
}

BoundClass RooflineModel::classify(const Dot& dot) const {
  // A dot parked at the wall, close to a *diagonal* ceiling, is
  // parallelism-bound: more parallel tasks would raise the attainable
  // throughput, but the wall forbids it.  Under a horizontal (shared
  // system) ceiling extra parallelism would not help, so the dot stays
  // system-bound.
  const int wall = parallelism_wall();
  const Ceiling& binding = binding_ceiling(dot.parallel_tasks);
  if (dot.parallel_tasks >= static_cast<double>(wall) &&
      binding.kind == CeilingKind::kDiagonal && efficiency(dot) >= 0.5) {
    return BoundClass::kParallelismBound;
  }
  if (binding.channel == Channel::kOverhead)
    return BoundClass::kControlFlowBound;
  if (is_node_channel(binding.channel)) return BoundClass::kNodeBound;
  return BoundClass::kSystemBound;
}

void RooflineModel::add_measured_dot(const std::string& label) {
  util::require(workflow_.has_measurement(),
                "workflow has no measured makespan to plot");
  Dot d;
  d.label = label;
  d.parallel_tasks = workflow_.parallel_tasks;
  d.tps = workflow_.throughput_tps();
  d.style = "measured";
  dots_.push_back(std::move(d));
}

void RooflineModel::add_dot(Dot dot) {
  util::require(dot.parallel_tasks >= 1.0, "dot needs parallel_tasks >= 1");
  util::require(dot.tps > 0.0, "dot needs tps > 0");
  dots_.push_back(std::move(dot));
}

void RooflineModel::set_dot_label(std::size_t index, std::string label) {
  util::require(index < dots_.size(), "dot index out of range");
  dots_[index].label = std::move(label);
}

double RooflineModel::target_throughput_tps() const {
  return workflow_.target_throughput_tps();
}

double RooflineModel::target_makespan_tps(double parallel_tasks) const {
  util::require(workflow_.has_target(), "workflow has no target makespan");
  // Iso-makespan diagonal: at P parallel tasks the workflow processes
  // total_tasks * P / parallel_tasks tasks per makespan.
  const double tasks_at_p = static_cast<double>(workflow_.total_tasks) *
                            parallel_tasks /
                            static_cast<double>(workflow_.parallel_tasks);
  return tasks_at_p / workflow_.target_makespan_seconds;
}

Zone RooflineModel::zone_of(const Dot& dot) const {
  const bool good_throughput = dot.tps >= target_throughput_tps();
  const bool good_makespan = dot.tps >= target_makespan_tps(dot.parallel_tasks);
  if (good_makespan && good_throughput)
    return Zone::kGoodMakespanGoodThroughput;
  if (good_makespan) return Zone::kGoodMakespanPoorThroughput;
  if (good_throughput) return Zone::kPoorMakespanGoodThroughput;
  return Zone::kPoorMakespanPoorThroughput;
}

std::string RooflineModel::report() const {
  std::string out = util::format(
      "Workflow Roofline: '%s' on '%s'\n", workflow_.name.c_str(),
      system_.name.c_str());
  out += util::format("  parallel tasks: %d (wall at %d)\n",
                      workflow_.parallel_tasks, parallelism_wall());
  for (const Ceiling& c : ceilings_) {
    switch (c.kind) {
      case CeilingKind::kDiagonal:
        out += util::format("  diagonal   %-11s %-42s %s/task\n",
                            channel_name(c.channel), c.label.c_str(),
                            util::format_seconds(c.seconds_per_task).c_str());
        break;
      case CeilingKind::kHorizontal:
        out += util::format("  horizontal %-11s %-42s %.3g tasks/s\n",
                            channel_name(c.channel), c.label.c_str(),
                            c.tps_limit);
        break;
      case CeilingKind::kWall:
        out += util::format("  wall       %-11s %-42s P <= %d\n",
                            channel_name(c.channel), c.label.c_str(),
                            c.max_parallel_tasks);
        break;
    }
  }
  for (const Dot& d : dots_) {
    out += util::format(
        "  dot '%s': P=%g, %.3g tasks/s, %.0f%% of attainable, %s\n",
        d.label.c_str(), d.parallel_tasks, d.tps, 100.0 * efficiency(d),
        bound_class_name(classify(d)));
    if (has_targets())
      out += util::format("      zone: %s\n", zone_name(zone_of(d)));
  }
  return out;
}

void compute_ceilings(const SystemSpec& s,
                      const WorkflowCharacterization& w,
                      std::vector<CeilingSpec>& out) {
  out.clear();
  // A seconds-per-task or throughput limit that is not finite and positive
  // (an extreme rate over- or underflowing) would reach the outputs as a
  // bare inf, so it is rejected here, where both sweep paths and
  // build_model pass.
  auto need = [&](double volume, double rate, const char* what) {
    util::require(rate > 0.0,
                  "workflow '%s' demands %s but system '%s' lacks that "
                  "channel",
                  w.name.c_str(), what, s.name.c_str());
    const double seconds = volume / rate;
    util::require(std::isfinite(seconds) && seconds > 0.0,
                  "workflow '%s' needs %g s per task of %s on system '%s'; "
                  "it must be finite and > 0",
                  w.name.c_str(), seconds, what, s.name.c_str());
    return seconds;
  };
  // Diagonal ceilings bound critical-path traversals (one per parallel
  // slot); each traversal completes total/parallel tasks.
  const double tasks_per_slot = static_cast<double>(w.total_tasks) /
                                static_cast<double>(w.parallel_tasks);
  auto diagonal = [&](Channel channel, double seconds_per_task) {
    CeilingSpec c;
    c.kind = CeilingKind::kDiagonal;
    c.channel = channel;
    c.seconds_per_task = seconds_per_task;
    c.tasks_per_instance = tasks_per_slot;
    out.push_back(c);
  };
  auto horizontal = [&](Channel channel, double tps_limit) {
    util::require(std::isfinite(tps_limit) && tps_limit > 0.0,
                  "workflow '%s' on system '%s': its %s ceiling of %g "
                  "tasks/s must be finite and > 0",
                  w.name.c_str(), s.name.c_str(), channel_name(channel),
                  tps_limit);
    CeilingSpec c;
    c.kind = CeilingKind::kHorizontal;
    c.channel = channel;
    c.tps_limit = tps_limit;
    out.push_back(c);
  };

  if (w.flops_per_node > 0.0)
    diagonal(Channel::kCompute,
             need(w.flops_per_node, s.node.peak_flops, "flops"));
  if (w.dram_bytes_per_node > 0.0)
    diagonal(Channel::kDram,
             need(w.dram_bytes_per_node, s.node.dram_gbs, "DRAM"));
  if (w.hbm_bytes_per_node > 0.0)
    diagonal(Channel::kHbm, need(w.hbm_bytes_per_node, s.node.hbm_gbs, "HBM"));
  if (w.pcie_bytes_per_node > 0.0)
    diagonal(Channel::kPcie,
             need(w.pcie_bytes_per_node, s.node.pcie_gbs, "PCIe"));
  if (w.network_bytes_per_task > 0.0) {
    const double aggregate_nic =
        s.node.nic_gbs * static_cast<double>(w.nodes_per_task);
    diagonal(Channel::kNetwork,
             need(w.network_bytes_per_task, aggregate_nic, "network"));
  }
  if (w.overhead_seconds_per_task > 0.0)
    diagonal(Channel::kOverhead, w.overhead_seconds_per_task);
  if (w.fs_bytes_per_task > 0.0)
    horizontal(Channel::kFilesystem,
               1.0 / need(w.fs_bytes_per_task, s.fs_gbs, "filesystem"));
  if (w.external_bytes_per_task > 0.0)
    horizontal(Channel::kExternal,
               1.0 / need(w.external_bytes_per_task, s.external_gbs,
                          "external"));

  const int wall = s.parallelism_wall(w.nodes_per_task);
  util::require(wall >= 1, "tasks of %d nodes do not fit on '%s' (%d nodes)",
                w.nodes_per_task, s.name.c_str(), s.total_nodes);
  CeilingSpec c;
  c.kind = CeilingKind::kWall;
  c.channel = Channel::kParallelism;
  c.max_parallel_tasks = wall;
  out.push_back(c);
}

std::string ceiling_label(const CeilingSpec& spec, const SystemSpec& s,
                          const WorkflowCharacterization& w) {
  // One string, reserved for the longest label, that every piece is
  // appended to.
  std::string out;
  out.reserve(64);
  auto bytes_at_rate = [&out](const char* name, double bytes, double rate) {
    out += name;
    util::append_bytes(out, bytes);
    out += " @ ";
    util::append_rate(out, rate);
  };
  switch (spec.channel) {
    case Channel::kCompute:
      out += "Compute ";
      util::append_flops(out, w.flops_per_node);
      out += " @ ";
      util::append_flops_rate(out, s.node.peak_flops);
      break;
    case Channel::kDram:
      bytes_at_rate("CPU Bytes ", w.dram_bytes_per_node, s.node.dram_gbs);
      break;
    case Channel::kHbm:
      bytes_at_rate("HBM Bytes ", w.hbm_bytes_per_node, s.node.hbm_gbs);
      break;
    case Channel::kPcie:
      bytes_at_rate("PCIe Bytes ", w.pcie_bytes_per_node, s.node.pcie_gbs);
      break;
    case Channel::kNetwork:
      out += "Network ";
      util::append_bytes(out, w.network_bytes_per_task);
      out += " @ ";
      out += std::to_string(w.nodes_per_task);
      out += " x ";
      util::append_rate(out, s.node.nic_gbs);
      break;
    case Channel::kOverhead:
      out += "Control-flow overhead ";
      util::append_seconds(out, w.overhead_seconds_per_task);
      out += "/task";
      break;
    case Channel::kFilesystem:
      bytes_at_rate("File System ", w.fs_bytes_per_task, s.fs_gbs);
      break;
    case Channel::kExternal:
      bytes_at_rate("System External ", w.external_bytes_per_task,
                    s.external_gbs);
      break;
    case Channel::kParallelism:
      out += "System parallelism @ ";
      out += std::to_string(spec.max_parallel_tasks);
      out += " tasks";
      break;
    case Channel::kCustom:
      out += "custom";
      break;
  }
  return out;
}

RooflineModel build_model(const SystemSpec& system,
                          const WorkflowCharacterization& workflow) {
  RooflineModel model(system, workflow);
  const WorkflowCharacterization& w = model.workflow();
  const SystemSpec& s = model.system();

  std::vector<CeilingSpec> specs;
  compute_ceilings(s, w, specs);
  for (const CeilingSpec& spec : specs)
    model.add_ceiling({spec, ceiling_label(spec, s, w)});

  if (w.has_measurement()) model.add_measured_dot();
  return model;
}

}  // namespace wfr::core

#pragma once
// The Workflow Roofline model (paper Section III): ceilings, walls,
// measured dots, targets, and classification.
//
// Geometry (log-log plot of throughput [tasks/s] vs. parallel tasks P):
//   * diagonal ceilings  — per-task node-local costs: tps(P) = P / seconds,
//     where seconds is the critical-path time of that channel for one task
//     (compute, DRAM, HBM, PCIe, NIC-limited network, control-flow
//     overhead);
//   * horizontal ceilings — shared system channels: tps = peak / bytes-per-
//     task (filesystem, external ingress); the parallel-task count cancels
//     out of Eq. 1 because the total volume grows with the task count;
//   * a vertical parallelism wall at floor(available / nodes-per-task).
//
// Targets: the throughput target is a horizontal line; the makespan target
// is a diagonal (iso-makespan) line — running more parallel tasks processes
// proportionally more tasks in the same makespan.  Together they cut the
// attainable area into the four zones of Fig. 2a.

#include <optional>
#include <string>
#include <vector>

#include "core/characterization.hpp"
#include "core/system_spec.hpp"

namespace wfr::core {

enum class CeilingKind { kDiagonal, kHorizontal, kWall };

/// The resource channel a ceiling models.
enum class Channel {
  kCompute,
  kDram,
  kHbm,
  kPcie,
  kNetwork,
  kOverhead,     // serial control-flow time (bash/srun/python)
  kFilesystem,   // system internal
  kExternal,     // system external
  kParallelism,  // the wall
  kCustom,
};

/// Stable lowercase channel name ("compute", "dram", ...).
const char* channel_name(Channel channel);

/// True for channels whose ceilings are node-local (diagonal) bounds.
bool is_node_channel(Channel channel);

/// The label-free numeric core of one performance bound — what
/// compute_ceilings emits.  The campaign-scale sweep hot path works on
/// these directly (no string formatting or vector copies per grid point);
/// build_model pairs each one with its label as a Ceiling.
struct CeilingSpec {
  CeilingKind kind = CeilingKind::kDiagonal;
  Channel channel = Channel::kCustom;

  /// Diagonal: the channel's critical-path time for one parallel slot
  /// (one workflow instance), the number the paper prints in labels like
  /// "GPU FLOPS (1800s, 64 nodes/task)".
  double seconds_per_task = 0.0;
  /// Diagonal: tasks completed per critical-path traversal
  /// (total_tasks / parallel_tasks); converts instance throughput to the
  /// task throughput on the y-axis.  1 when each slot is one task.
  double tasks_per_instance = 1.0;
  /// Horizontal: the throughput limit itself.
  double tps_limit = 0.0;
  /// Wall: the maximum number of parallel tasks.
  int max_parallel_tasks = 0;

  /// Throughput bound at `parallel_tasks`; +inf for walls (they bound x,
  /// not y).  Diagonals: P * tasks_per_instance / seconds_per_task.
  double tps_at(double parallel_tasks) const;
};

/// One labeled performance bound: a CeilingSpec plus its display label.
/// The factories check their numbers, for hand-built ceilings.
struct Ceiling : CeilingSpec {
  std::string label;

  static Ceiling diagonal(Channel channel, std::string label,
                          double seconds_per_task,
                          double tasks_per_instance = 1.0);
  static Ceiling horizontal(Channel channel, std::string label,
                            double tps_limit);
  static Ceiling wall(std::string label, int max_parallel_tasks);
};

/// Computes the standard model's ceilings into `out` (cleared first):
/// one diagonal per demanded node channel, horizontal
/// filesystem/external ceilings, and the parallelism wall, in
/// build_model's order.  Performs the same demand/wall checks — and
/// throws the same errors — as build_model; inputs must already be
/// validated.  Reuses `out`'s capacity, so a caller looping over a
/// million grid points allocates nothing after the first.
void compute_ceilings(const SystemSpec& system,
                      const WorkflowCharacterization& workflow,
                      std::vector<CeilingSpec>& out);

/// The display label build_model attaches to `spec`, e.g.
/// "File System 35 GB @ 5.6 TB/s" or "Network 2.68 TB @ 4 x 25 GB/s".
/// Ceiling math and presentation meet only here, so the sweep hot path
/// can format exactly one label (its binding ceiling's) instead of all of
/// them.  Built in one reserved string from literal text, the
/// util/units.hpp append forms and std::to_string, with no printf.
std::string ceiling_label(const CeilingSpec& spec, const SystemSpec& system,
                          const WorkflowCharacterization& workflow);

/// One plotted point: a measured (or projected) workflow execution.
struct Dot {
  std::string label;
  double parallel_tasks = 1.0;
  double tps = 0.0;
  /// Optional style hint for renderers ("measured", "projected", ...).
  std::string style = "measured";
};

/// The paper's Fig. 3 classification.
enum class BoundClass {
  kNodeBound,
  kSystemBound,
  kParallelismBound,
  kControlFlowBound,
};

const char* bound_class_name(BoundClass bound);

/// The paper's Fig. 2a zones.
enum class Zone {
  kGoodMakespanGoodThroughput,
  kGoodMakespanPoorThroughput,
  kPoorMakespanGoodThroughput,
  kPoorMakespanPoorThroughput,
};

const char* zone_name(Zone zone);

/// A fully assembled Workflow Roofline model.
class RooflineModel {
 public:
  /// An empty placeholder model (no ceilings); assign a built model over
  /// it before use.
  RooflineModel() : RooflineModel(SystemSpec{}, WorkflowCharacterization{}) {}
  RooflineModel(SystemSpec system, WorkflowCharacterization workflow);

  const SystemSpec& system() const { return system_; }
  const WorkflowCharacterization& workflow() const { return workflow_; }

  /// All ceilings (diagonals, horizontals, and the wall).
  const std::vector<Ceiling>& ceilings() const { return ceilings_; }

  /// Adds a custom ceiling (e.g. a paper-style horizontal network line).
  void add_ceiling(Ceiling ceiling);

  /// The parallelism wall (max parallel tasks).
  int parallelism_wall() const;

  /// min over ceilings of tps_at(P).  Throws when P exceeds the wall or
  /// P < 1.
  double attainable_tps(double parallel_tasks) const;

  /// The ceiling that sets attainable_tps at P (ties: first wins).
  const Ceiling& binding_ceiling(double parallel_tasks) const;

  /// Fraction of the attainable throughput a dot achieves (the paper's
  /// "42% of node peak" style statement), in (0, 1] for a feasible dot.
  double efficiency(const Dot& dot) const;

  /// Fig. 3 classification of a dot: by its binding ceiling.
  BoundClass classify(const Dot& dot) const;

  // --- Dots -------------------------------------------------------------------
  /// Adds the workflow's measured dot (requires a measured makespan).
  /// build_model already adds it when the workflow has a makespan.
  void add_measured_dot(const std::string& label = "measured");
  void add_dot(Dot dot);
  const std::vector<Dot>& dots() const { return dots_; }
  /// Renames an existing dot (e.g. to a scenario label); throws on an
  /// out-of-range index.
  void set_dot_label(std::size_t index, std::string label);

  // --- Targets (Fig. 2) --------------------------------------------------------
  bool has_targets() const { return workflow_.has_target(); }
  /// Horizontal target-throughput line.
  double target_throughput_tps() const;
  /// Diagonal iso-makespan target line evaluated at P.
  double target_makespan_tps(double parallel_tasks) const;
  /// Zone of a dot relative to the targets; throws when no target is set.
  Zone zone_of(const Dot& dot) const;

  /// Multi-line human-readable report (ceilings, dots, classification).
  std::string report() const;

 private:
  SystemSpec system_;
  WorkflowCharacterization workflow_;
  std::vector<Ceiling> ceilings_;
  std::vector<Dot> dots_;
};

/// Builds the standard model for a workflow on a system: one diagonal per
/// demanded node channel, horizontal filesystem/external ceilings, and the
/// parallelism wall.  When the workflow has a measured makespan the model
/// also carries its one measured dot (dots().front()); callers do not add
/// another.  Throws InvalidArgument when the workflow demands a channel
/// the system lacks.
RooflineModel build_model(const SystemSpec& system,
                          const WorkflowCharacterization& workflow);

}  // namespace wfr::core

#pragma once
// Task specification: one node-allocatable unit of work inside a workflow.
// Matching the paper's definition (Section III), a task may be a large MPI
// application or a small script; what matters to the model is its resource
// demands per channel.

#include <cstdint>
#include <string>

namespace wfr::dag {

/// Opaque task identifier, dense in [0, task_count).
using TaskId = std::uint32_t;

inline constexpr TaskId kInvalidTask = static_cast<TaskId>(-1);

/// Per-task resource demand volumes.  "Per node" quantities follow the
/// paper's node-level characterization (total volume divided by the number
/// of nodes the task runs on); system-level quantities are totals for the
/// task across the whole system.
struct ResourceDemand {
  // --- System-level volumes (shared resources) ---------------------------
  /// Bytes loaded into the system from external storage (e.g. a detector
  /// at a light source, or a DTN transfer).
  double external_in_bytes = 0.0;
  /// Bytes read from the shared parallel filesystem.
  double fs_read_bytes = 0.0;
  /// Bytes written to the shared parallel filesystem.
  double fs_write_bytes = 0.0;
  /// Total MPI traffic the task puts on the system network.
  double network_bytes = 0.0;

  // --- Node-level volumes (per allocated node) ----------------------------
  /// Floating-point operations per node.
  double flops_per_node = 0.0;
  /// CPU DRAM traffic per node ("CPU Bytes" in the paper's Table I).
  double dram_bytes_per_node = 0.0;
  /// GPU HBM traffic per node.
  double hbm_bytes_per_node = 0.0;
  /// Host<->device PCIe traffic per node.
  double pcie_bytes_per_node = 0.0;

  // --- Fixed costs ---------------------------------------------------------
  /// Serial control-flow overhead not modeled by any bandwidth channel
  /// (bash, srun launch, python library loading, ...).
  double overhead_seconds = 0.0;

  /// True when every volume and the overhead is zero.
  bool is_zero() const;

  /// Element-wise sum of demands.
  ResourceDemand operator+(const ResourceDemand& other) const;
};

/// Specification of one workflow task.
struct TaskSpec {
  std::string name;
  /// Free-form kind tag ("analysis", "merge", "train", "tune", ...).
  std::string kind;
  /// Number of compute nodes the task occupies while running (>= 1).
  int nodes = 1;
  /// Resource demand volumes.
  ResourceDemand demand;
  /// When >= 0, a measured/reported wall-clock duration that overrides the
  /// demand-derived estimate (the paper's "Measured"/"reported" rows of
  /// Table I).  Negative means "derive from demand".
  double fixed_duration_seconds = -1.0;

  /// Validates invariants; throws InvalidArgument on violation.
  void validate() const;
};

}  // namespace wfr::dag

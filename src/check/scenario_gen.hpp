#pragma once
// Seed-driven scenario generator for differential validation (the
// csmith-style half of the check subsystem): synthesizes random-but-valid
// system specs and workflow DAGs, with two generator modes.
//
// Rectangular mode (v1 construction, unchanged): every scenario is a
// rectangular DAG — `width` independent chains of `levels` identical tasks —
// with one *dominant* resource channel and every other channel either absent
// or constrained to a fraction of the dominant service time so small that
// the end-to-end effect is bounded well below the check tolerance:
//   * node-local secondaries take <= 1e-3 of the dominant time (and the
//     work phase is a max over channels, so they do not extend it at all);
//   * serial-adding secondaries (overhead, shared filesystem / external
//     flows) are capped so that even fully contended they add <= 1/800 of
//     the dominant time each.
// With width <= parallelism wall the simulator runs the chains in lockstep
// waves, making the closed-form prediction exact up to those epsilons:
//   * node-dominant:   makespan = levels * t_dom        -> tps = W / t_dom
//   * shared-dominant: makespan = tasks * t_dom         -> tps = 1 / t_dom
// The generator also records the *expected* parallelism wall, binding
// channel, and Fig. 3 bound class, so the differential runner can assert
// exact agreement on classification, not just throughput.
//
// Irregular mode (v2): scenarios draw one of five topology classes —
// fan-out trees, fan-in trees, diamonds, multi-phase pipelines, and
// straggler ensembles — with heterogeneous per-task volumes (each task's
// dominant service time is an independent log-uniform scale of the
// scenario's base time) and, in the straggler class, one task slowed by a
// large factor.  On such DAGs the roofline is an *upper bound*, not a tight
// prediction: the construction keeps width <= wall and uniform per-task
// node counts, under which every diagonal ceiling is bounded below by a
// path argument (the critical path's per-channel service time is a lower
// bound on the makespan) and every horizontal ceiling by a capacity
// argument (a shared channel cannot move more than capacity x time bytes).
// The differential runner therefore asserts simulated <= predicted and
// records the *gap* — how far below the roofline the simulator lands —
// whose distribution is reported per topology class and checked against
// per-class ceilings (topology_gap_ceiling) measured empirically and
// documented in docs/TESTING.md.
//
// Determinism: a scenario is a pure function of (base_seed, index, mode)
// via exec::scenario_seed's SplitMix64 mix, so repro files only need to
// record those values (plus the generator version, which must be bumped on
// any change to the draw sequence).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/model.hpp"
#include "core/system_spec.hpp"
#include "dag/graph.hpp"
#include "util/json.hpp"

namespace wfr::check {

/// Default base seed for `wfr check` and the ctest suites.
inline constexpr std::uint64_t kDefaultBaseSeed = 42;

/// The resource channel a generated scenario is engineered to be bound by.
enum class Regime {
  kCompute,
  kDram,
  kHbm,
  kPcie,
  kNetwork,
  kOverhead,
  kFilesystem,
  kExternal,
};

inline constexpr int kRegimeCount = 8;

/// Stable lowercase regime name ("compute", "filesystem", ...).
const char* regime_name(Regime regime);

/// The core::Channel whose ceiling must bind for this regime.
core::Channel regime_channel(Regime regime);

/// True for regimes bound by a node-local (diagonal) channel, including
/// control-flow overhead; false for the shared (horizontal) channels.
bool is_node_regime(Regime regime);

/// Which draw procedure a scenario came from.
enum class GenMode { kRectangular, kIrregular };

/// Stable mode name ("rectangular" / "irregular").
const char* gen_mode_name(GenMode mode);

/// Parses a --gen flag value; throws InvalidArgument on anything else.
GenMode parse_gen_mode(std::string_view text);

/// Irregular-mode topology classes (rectangular scenarios report
/// kRectangular so every scenario has a class).
enum class Topology {
  kRectangular,
  kFanOut,
  kFanIn,
  kDiamond,
  kMultiphase,
  kStraggler,
};

inline constexpr int kTopologyCount = 6;

/// Stable class name ("fan-out", "multi-phase", ...).
const char* topology_name(Topology topology);

/// Documented per-class ceiling on the roofline gap
/// (1 - simulated/predicted); the irregular-mode pass criterion.  Values
/// are measured empirically at high seed counts and carry headroom — see
/// docs/TESTING.md for the per-class rationale.
double topology_gap_ceiling(Topology topology);

/// One edge of an irregular scenario, by task position.
struct GenEdge {
  int from = 0;
  int to = 0;
};

/// One generated differential-check scenario plus its expectations.
struct GenScenario {
  std::uint64_t base_seed = 0;
  std::uint64_t case_seed = 0;  // exec::scenario_seed(base_seed, index)
  std::size_t index = 0;

  GenMode mode = GenMode::kRectangular;
  Topology topology = Topology::kRectangular;
  Regime regime = Regime::kCompute;
  core::SystemSpec system;
  int nodes_per_task = 1;
  /// Maximum level width (the DAG's parallel width); always <= the wall.
  int width = 1;
  /// Level count.
  int levels = 1;
  /// Rectangular mode: the uniform task replicated across the DAG (name
  /// set per position).  Unused in irregular mode.
  dag::TaskSpec task;
  /// Irregular mode: explicit heterogeneous tasks and edges.
  std::vector<dag::TaskSpec> tasks;
  std::vector<GenEdge> edges;
  /// Dominant channel's service time anchor, seconds (per task in
  /// rectangular mode; the base time irregular tasks scale from).
  double dominant_seconds = 0.0;

  // --- Expectations derived at generation time ----------------------------
  int expected_wall = 0;
  /// Rectangular mode only: the closed-form throughput and bound class.
  double expected_tps = 0.0;
  core::BoundClass expected_bound = core::BoundClass::kNodeBound;
  /// Whether the DAG is weakly connected (measured at generation time).
  bool expected_connected = true;

  int total_tasks() const {
    return mode == GenMode::kIrregular ? static_cast<int>(tasks.size())
                                       : width * levels;
  }

  /// Materializes the DAG (rectangular grid or the explicit task list).
  dag::WorkflowGraph build_graph() const;

  /// Lossless record for repro files (seeds serialized as decimal strings
  /// because JSON numbers cannot hold a full uint64).
  util::Json to_json() const;
};

/// Deterministic scenario factory: generate(i) depends only on
/// (base_seed, mode, i), never on call order, so fan-out across a thread
/// pool yields identical scenarios at any job count.
class ScenarioGen {
 public:
  /// Bump when the draw sequence changes; stale repro files are detected
  /// by comparing the regenerated scenario against the recorded one.
  /// v2: irregular mode added (rectangular draws unchanged from v1).
  static constexpr int kGenVersion = 2;

  explicit ScenarioGen(std::uint64_t base_seed = kDefaultBaseSeed,
                       GenMode mode = GenMode::kRectangular)
      : base_seed_(base_seed), mode_(mode) {}

  GenScenario generate(std::size_t index) const;

 private:
  GenScenario generate_rectangular(std::size_t index) const;
  GenScenario generate_irregular(std::size_t index) const;

  std::uint64_t base_seed_;
  GenMode mode_;
};

}  // namespace wfr::check

#include "check/scenario_gen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "exec/thread_pool.hpp"
#include "math/rng.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace wfr::check {

const char* regime_name(Regime regime) {
  switch (regime) {
    case Regime::kCompute: return "compute";
    case Regime::kDram: return "dram";
    case Regime::kHbm: return "hbm";
    case Regime::kPcie: return "pcie";
    case Regime::kNetwork: return "network";
    case Regime::kOverhead: return "overhead";
    case Regime::kFilesystem: return "filesystem";
    case Regime::kExternal: return "external";
  }
  return "?";
}

core::Channel regime_channel(Regime regime) {
  switch (regime) {
    case Regime::kCompute: return core::Channel::kCompute;
    case Regime::kDram: return core::Channel::kDram;
    case Regime::kHbm: return core::Channel::kHbm;
    case Regime::kPcie: return core::Channel::kPcie;
    case Regime::kNetwork: return core::Channel::kNetwork;
    case Regime::kOverhead: return core::Channel::kOverhead;
    case Regime::kFilesystem: return core::Channel::kFilesystem;
    case Regime::kExternal: return core::Channel::kExternal;
  }
  return core::Channel::kCustom;
}

bool is_node_regime(Regime regime) {
  return regime != Regime::kFilesystem && regime != Regime::kExternal;
}

const char* gen_mode_name(GenMode mode) {
  return mode == GenMode::kIrregular ? "irregular" : "rectangular";
}

GenMode parse_gen_mode(std::string_view text) {
  if (text == "rectangular") return GenMode::kRectangular;
  if (text == "irregular") return GenMode::kIrregular;
  throw util::InvalidArgument(util::format(
      "unknown generator mode '%.*s' (expected rectangular or irregular)",
      static_cast<int>(text.size()), text.data()));
}

const char* topology_name(Topology topology) {
  switch (topology) {
    case Topology::kRectangular: return "rectangular";
    case Topology::kFanOut: return "fan-out";
    case Topology::kFanIn: return "fan-in";
    case Topology::kDiamond: return "diamond";
    case Topology::kMultiphase: return "multi-phase";
    case Topology::kStraggler: return "straggler";
  }
  return "?";
}

double topology_gap_ceiling(Topology topology) {
  // Measured over 4000 irregular seeds per class (see docs/TESTING.md for
  // the observed maxima and the structural argument behind each bound),
  // then rounded up with headroom.  The rectangular entry is the v1 check
  // tolerance: those scenarios are engineered tight.
  switch (topology) {
    case Topology::kRectangular: return 0.02;
    case Topology::kFanOut: return 0.75;
    case Topology::kFanIn: return 0.75;
    case Topology::kDiamond: return 0.75;
    case Topology::kMultiphase: return 0.80;
    case Topology::kStraggler: return 0.985;
  }
  return 1.0;
}

dag::WorkflowGraph GenScenario::build_graph() const {
  if (mode == GenMode::kIrregular) {
    dag::WorkflowGraph graph(std::string("check-irr-") +
                             topology_name(topology) + '-' +
                             std::to_string(index));
    std::vector<dag::TaskId> ids;
    ids.reserve(tasks.size());
    for (const dag::TaskSpec& spec : tasks) ids.push_back(graph.add_task(spec));
    for (const GenEdge& e : edges)
      graph.add_dependency(ids[static_cast<std::size_t>(e.from)],
                           ids[static_cast<std::size_t>(e.to)]);
    return graph;
  }
  dag::WorkflowGraph graph(std::string("check-") + regime_name(regime) + '-' +
                           std::to_string(index));
  for (int col = 0; col < width; ++col) {
    dag::TaskId prev = dag::kInvalidTask;
    for (int level = 0; level < levels; ++level) {
      dag::TaskSpec spec = task;
      spec.name = 't' + std::to_string(col) + '_' + std::to_string(level);
      const dag::TaskId id = graph.add_task(std::move(spec));
      if (level > 0) graph.add_dependency(prev, id);
      prev = id;
    }
  }
  return graph;
}

namespace {

util::Json demand_json(const dag::ResourceDemand& d) {
  util::JsonObject demand;
  auto set_nonzero = [&demand](const char* key, double v) {
    if (v != 0.0) demand.set(key, util::Json(v));
  };
  set_nonzero("external_in_bytes", d.external_in_bytes);
  set_nonzero("fs_read_bytes", d.fs_read_bytes);
  set_nonzero("fs_write_bytes", d.fs_write_bytes);
  set_nonzero("network_bytes", d.network_bytes);
  set_nonzero("flops_per_node", d.flops_per_node);
  set_nonzero("dram_bytes_per_node", d.dram_bytes_per_node);
  set_nonzero("hbm_bytes_per_node", d.hbm_bytes_per_node);
  set_nonzero("pcie_bytes_per_node", d.pcie_bytes_per_node);
  set_nonzero("overhead_seconds", d.overhead_seconds);
  return util::Json(std::move(demand));
}

}  // namespace

util::Json GenScenario::to_json() const {
  util::JsonObject o;
  o.set("gen_version", util::Json(ScenarioGen::kGenVersion));
  o.set("mode", util::Json(std::string(gen_mode_name(mode))));
  o.set("base_seed", util::Json(util::format(
                         "%llu", static_cast<unsigned long long>(base_seed))));
  o.set("case_seed", util::Json(util::format(
                         "%llu", static_cast<unsigned long long>(case_seed))));
  o.set("index", util::Json(static_cast<std::int64_t>(index)));
  o.set("regime", util::Json(std::string(regime_name(regime))));
  o.set("width", util::Json(width));
  o.set("levels", util::Json(levels));
  o.set("nodes_per_task", util::Json(nodes_per_task));
  o.set("dominant_seconds", util::Json(dominant_seconds));
  o.set("system", system.to_json());

  if (mode == GenMode::kIrregular) {
    o.set("topology", util::Json(std::string(topology_name(topology))));
    util::JsonArray task_array;
    for (const dag::TaskSpec& spec : tasks) {
      util::JsonObject t;
      t.set("name", util::Json(spec.name));
      t.set("demand", demand_json(spec.demand));
      task_array.push_back(util::Json(std::move(t)));
    }
    o.set("tasks", util::Json(std::move(task_array)));
    util::JsonArray edge_array;
    for (const GenEdge& e : edges) {
      util::JsonArray pair;
      pair.push_back(util::Json(e.from));
      pair.push_back(util::Json(e.to));
      edge_array.push_back(util::Json(std::move(pair)));
    }
    o.set("edges", util::Json(std::move(edge_array)));
    util::JsonObject expected;
    expected.set("wall", util::Json(expected_wall));
    expected.set("connected", util::Json(expected_connected));
    expected.set("gap_ceiling", util::Json(topology_gap_ceiling(topology)));
    o.set("expected", util::Json(std::move(expected)));
    return util::Json(std::move(o));
  }

  o.set("task_demand", demand_json(task.demand));
  util::JsonObject expected;
  expected.set("wall", util::Json(expected_wall));
  expected.set("tps", util::Json(expected_tps));
  expected.set("bound", util::Json(std::string(
                            core::bound_class_name(expected_bound))));
  expected.set("channel", util::Json(std::string(
                              core::channel_name(regime_channel(regime)))));
  o.set("expected", util::Json(std::move(expected)));
  return util::Json(std::move(o));
}

namespace {

double log_uniform(math::Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

// Draws the per-channel rates shared by both generator modes.  Keep the
// draw order stable: it is part of the v1 sequence.
void draw_channel_rates(math::Rng& rng, core::SystemSpec& sys) {
  sys.node.peak_flops = log_uniform(rng, 1e12, 1e15);
  sys.node.dram_gbs = log_uniform(rng, 5e10, 5e11);
  sys.node.hbm_gbs = log_uniform(rng, 5e11, 5e12);
  sys.node.pcie_gbs = log_uniform(rng, 2.5e10, 1e11);
  sys.node.nic_gbs = log_uniform(rng, 1e10, 2e11);
  sys.fs_gbs = log_uniform(rng, 1e11, 1e13);
  sys.external_gbs = log_uniform(rng, 1e9, 1e11);
}

// Sets the dominant channel's demand to exactly `seconds` of uncontended
// service time on `sys`.
void set_dominant(dag::ResourceDemand& d, Regime regime,
                  const core::SystemSpec& sys, int nodes, double seconds,
                  double read_fraction) {
  switch (regime) {
    case Regime::kCompute:
      d.flops_per_node = seconds * sys.node.peak_flops;
      break;
    case Regime::kDram:
      d.dram_bytes_per_node = seconds * sys.node.dram_gbs;
      break;
    case Regime::kHbm:
      d.hbm_bytes_per_node = seconds * sys.node.hbm_gbs;
      break;
    case Regime::kPcie:
      d.pcie_bytes_per_node = seconds * sys.node.pcie_gbs;
      break;
    case Regime::kNetwork:
      // The work phase and the model both rate the task's network volume
      // at its aggregate NIC bandwidth (nodes x nic).
      d.network_bytes = seconds * sys.node.nic_gbs * nodes;
      break;
    case Regime::kOverhead:
      d.overhead_seconds = seconds;
      break;
    case Regime::kFilesystem: {
      const double bytes = seconds * sys.fs_gbs;
      d.fs_read_bytes = bytes * read_fraction;
      d.fs_write_bytes = bytes - d.fs_read_bytes;
      break;
    }
    case Regime::kExternal:
      d.external_in_bytes = seconds * sys.external_gbs;
      break;
  }
}

// Weak connectivity of the generated task set under its edges.
bool weakly_connected(int tasks, const std::vector<GenEdge>& edges) {
  if (tasks <= 1) return true;
  std::vector<int> parent(static_cast<std::size_t>(tasks));
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  int components = tasks;
  for (const GenEdge& e : edges) {
    const int a = find(e.from);
    const int b = find(e.to);
    if (a != b) {
      parent[static_cast<std::size_t>(a)] = b;
      --components;
    }
  }
  return components == 1;
}

}  // namespace

GenScenario ScenarioGen::generate(std::size_t index) const {
  return mode_ == GenMode::kIrregular ? generate_irregular(index)
                                      : generate_rectangular(index);
}

GenScenario ScenarioGen::generate_rectangular(std::size_t index) const {
  GenScenario s;
  s.mode = GenMode::kRectangular;
  s.topology = Topology::kRectangular;
  s.base_seed = base_seed_;
  s.index = index;
  s.case_seed = exec::scenario_seed(base_seed_, index);
  math::Rng rng(s.case_seed);

  core::SystemSpec& sys = s.system;
  sys.name = "gen-" + std::to_string(index);
  sys.total_nodes = static_cast<int>(rng.uniform_int(4, 256));
  draw_channel_rates(rng, sys);

  s.nodes_per_task = static_cast<int>(rng.uniform_int(1, sys.total_nodes));
  const int wall = sys.total_nodes / s.nodes_per_task;
  s.expected_wall = wall;
  // Half the scenarios park at the wall to exercise parallelism-bound
  // classification; keeping width <= wall keeps the wave structure exact
  // (no partial final wave to blur the closed-form prediction).
  const bool at_wall = rng.bernoulli(0.5);
  s.width = at_wall ? wall : static_cast<int>(rng.uniform_int(1, wall));
  s.levels = static_cast<int>(rng.uniform_int(1, 4));

  s.regime = static_cast<Regime>(rng.uniform_int(0, kRegimeCount - 1));
  const double t_dom = log_uniform(rng, 10.0, 1000.0);
  s.dominant_seconds = t_dom;

  dag::TaskSpec& task = s.task;
  task.name = "task";  // placeholder; build_graph names each position
  task.kind = regime_name(s.regime);
  task.nodes = s.nodes_per_task;
  dag::ResourceDemand& d = task.demand;

  // Dominant channel: exactly t_dom seconds of uncontended service.
  const double read_fraction = s.regime == Regime::kFilesystem
                                   ? rng.uniform(0.25, 0.75)
                                   : 0.5;
  set_dominant(d, s.regime, sys, s.nodes_per_task, t_dom, read_fraction);

  // Secondary channels, each present with probability 1/2.  Node-local
  // secondaries take <= 1e-3 * t_dom (the work phase is a max, so they
  // never extend it; their ceilings sit 1000x above the dominant one).
  // Serial-adding secondaries — overhead and the shared channels — are
  // capped at t_dom/800 even when fully contended by `width` concurrent
  // flows, bounding the end-to-end error at a few parts per thousand.
  const double node_cap = t_dom * 1e-3;
  const double serial_cap = t_dom / 800.0;
  const double shared_cap = serial_cap / static_cast<double>(s.width);
  auto secondary = [&rng](double cap) { return cap * rng.uniform(); };

  if (s.regime != Regime::kCompute && rng.bernoulli(0.5))
    d.flops_per_node = secondary(node_cap) * sys.node.peak_flops;
  if (s.regime != Regime::kDram && rng.bernoulli(0.5))
    d.dram_bytes_per_node = secondary(node_cap) * sys.node.dram_gbs;
  if (s.regime != Regime::kHbm && rng.bernoulli(0.5))
    d.hbm_bytes_per_node = secondary(node_cap) * sys.node.hbm_gbs;
  if (s.regime != Regime::kPcie && rng.bernoulli(0.5))
    d.pcie_bytes_per_node = secondary(node_cap) * sys.node.pcie_gbs;
  if (s.regime != Regime::kNetwork && rng.bernoulli(0.5))
    d.network_bytes =
        secondary(node_cap) * sys.node.nic_gbs * s.nodes_per_task;
  if (s.regime != Regime::kOverhead && rng.bernoulli(0.5))
    d.overhead_seconds = secondary(serial_cap);
  if (s.regime != Regime::kFilesystem && rng.bernoulli(0.5))
    d.fs_read_bytes = secondary(shared_cap) * sys.fs_gbs;
  if (s.regime != Regime::kExternal && rng.bernoulli(0.5))
    d.external_in_bytes = secondary(shared_cap) * sys.external_gbs;

  task.validate();
  sys.validate();

  if (is_node_regime(s.regime)) {
    s.expected_tps = static_cast<double>(s.width) / t_dom;
    if (s.width == wall) {
      s.expected_bound = core::BoundClass::kParallelismBound;
    } else if (s.regime == Regime::kOverhead) {
      s.expected_bound = core::BoundClass::kControlFlowBound;
    } else {
      s.expected_bound = core::BoundClass::kNodeBound;
    }
  } else {
    s.expected_tps = 1.0 / t_dom;
    s.expected_bound = core::BoundClass::kSystemBound;
  }
  return s;
}

GenScenario ScenarioGen::generate_irregular(std::size_t index) const {
  GenScenario s;
  s.mode = GenMode::kIrregular;
  s.base_seed = base_seed_;
  s.index = index;
  s.case_seed = exec::scenario_seed(base_seed_, index);
  math::Rng rng(s.case_seed);

  s.topology = static_cast<Topology>(1 + rng.uniform_int(0, 4));
  s.regime = static_cast<Regime>(rng.uniform_int(0, kRegimeCount - 1));

  core::SystemSpec& sys = s.system;
  sys.name = "gen-irr-" + std::to_string(index);
  draw_channel_rates(rng, sys);

  // Uniform per-task node count.  With every task needing the same n nodes
  // and total_nodes >= width * n (f >= 1 below), width <= wall always
  // holds, which the upper-bound argument in the header requires.
  s.nodes_per_task = static_cast<int>(rng.uniform_int(1, 4));
  const double t_base = log_uniform(rng, 10.0, 1000.0);
  s.dominant_seconds = t_base;

  // --- Structure: per-level widths plus explicit edges --------------------
  std::vector<int> level_widths;
  int straggler_index = -1;
  double straggler_factor = 1.0;
  switch (s.topology) {
    case Topology::kFanOut: {
      const int w = static_cast<int>(rng.uniform_int(3, 24));
      level_widths = {1, w};
      for (int i = 0; i < w; ++i) s.edges.push_back({0, 1 + i});
      break;
    }
    case Topology::kFanIn: {
      const int w = static_cast<int>(rng.uniform_int(3, 24));
      level_widths = {w, 1};
      for (int i = 0; i < w; ++i) s.edges.push_back({i, w});
      break;
    }
    case Topology::kDiamond: {
      const int w = static_cast<int>(rng.uniform_int(3, 24));
      level_widths = {1, w, 1};
      for (int i = 0; i < w; ++i) {
        s.edges.push_back({0, 1 + i});
        s.edges.push_back({1 + i, 1 + w});
      }
      break;
    }
    case Topology::kMultiphase: {
      const int phases = static_cast<int>(rng.uniform_int(3, 6));
      int base = 0;
      for (int l = 0; l < phases; ++l)
        level_widths.push_back(static_cast<int>(rng.uniform_int(1, 8)));
      for (int l = 1; l < phases; ++l) {
        const int prev_base = base;
        const int prev_w = level_widths[static_cast<std::size_t>(l - 1)];
        base += prev_w;
        const int w = level_widths[static_cast<std::size_t>(l)];
        const double density = rng.uniform(0.2, 0.9);
        std::vector<bool> parent_used(static_cast<std::size_t>(prev_w), false);
        for (int u = 0; u < w; ++u) {
          bool any = false;
          for (int p = 0; p < prev_w; ++p) {
            if (rng.bernoulli(density)) {
              s.edges.push_back({prev_base + p, base + u});
              parent_used[static_cast<std::size_t>(p)] = true;
              any = true;
            }
          }
          if (!any) {
            const int p = static_cast<int>(rng.uniform_int(0, prev_w - 1));
            s.edges.push_back({prev_base + p, base + u});
            parent_used[static_cast<std::size_t>(p)] = true;
          }
        }
        // Every task must feed the next phase, or it would dangle
        // mid-pipeline.
        for (int p = 0; p < prev_w; ++p) {
          if (parent_used[static_cast<std::size_t>(p)]) continue;
          const int u = static_cast<int>(rng.uniform_int(0, w - 1));
          s.edges.push_back({prev_base + p, base + u});
        }
      }
      break;
    }
    case Topology::kStraggler: {
      const int w = static_cast<int>(rng.uniform_int(4, 32));
      level_widths = {w};
      straggler_index = static_cast<int>(rng.uniform_int(0, w - 1));
      straggler_factor = log_uniform(rng, 3.0, 8.0);
      break;
    }
    case Topology::kRectangular:
      break;  // unreachable: irregular draws pick from the five classes
  }

  s.levels = static_cast<int>(level_widths.size());
  s.width = *std::max_element(level_widths.begin(), level_widths.end());
  const int total = std::accumulate(level_widths.begin(), level_widths.end(), 0);

  // Node pool: at least one full wave of the widest level (f >= 1 keeps
  // width <= wall), up to 4x that.
  const double f = log_uniform(rng, 1.0, 4.0);
  sys.total_nodes = std::max(
      s.nodes_per_task,
      static_cast<int>(std::ceil(s.width * s.nodes_per_task * f)));
  s.expected_wall = sys.total_nodes / s.nodes_per_task;

  // --- Heterogeneous per-task demands -------------------------------------
  // Dominant channel: t_base scaled per task by a log-uniform factor in
  // [0.5, 2] (the straggler task additionally by [3, 8]).  Secondaries are
  // sized so the dominant channel stays dominant: node-local ones at
  // <= 0.5 * t_i (the work phase is a max), serial adders (overhead,
  // shared flows even under full contention by `width` peers) at
  // <= 0.15 * t_i each — these caps are what the per-class gap ceilings in
  // topology_gap_ceiling() are derived from.
  s.tasks.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    dag::TaskSpec spec;
    spec.name = 't' + std::to_string(i);
    spec.kind = topology_name(s.topology);
    spec.nodes = s.nodes_per_task;
    double t_i = t_base * log_uniform(rng, 0.5, 2.0);
    if (i == straggler_index) t_i *= straggler_factor;
    dag::ResourceDemand& d = spec.demand;
    const double read_fraction = s.regime == Regime::kFilesystem
                                     ? rng.uniform(0.25, 0.75)
                                     : 0.5;
    set_dominant(d, s.regime, sys, s.nodes_per_task, t_i, read_fraction);

    const double node_cap = t_i * 0.5;
    const double serial_cap = t_i * 0.15;
    const double shared_cap = serial_cap / static_cast<double>(s.width);
    auto secondary = [&rng](double cap) { return cap * rng.uniform(); };
    if (s.regime != Regime::kCompute && rng.bernoulli(0.3))
      d.flops_per_node = secondary(node_cap) * sys.node.peak_flops;
    if (s.regime != Regime::kDram && rng.bernoulli(0.3))
      d.dram_bytes_per_node = secondary(node_cap) * sys.node.dram_gbs;
    if (s.regime != Regime::kHbm && rng.bernoulli(0.3))
      d.hbm_bytes_per_node = secondary(node_cap) * sys.node.hbm_gbs;
    if (s.regime != Regime::kPcie && rng.bernoulli(0.3))
      d.pcie_bytes_per_node = secondary(node_cap) * sys.node.pcie_gbs;
    if (s.regime != Regime::kNetwork && rng.bernoulli(0.3))
      d.network_bytes =
          secondary(node_cap) * sys.node.nic_gbs * s.nodes_per_task;
    if (s.regime != Regime::kOverhead && rng.bernoulli(0.3))
      d.overhead_seconds = secondary(serial_cap);
    if (s.regime != Regime::kFilesystem && rng.bernoulli(0.3))
      d.fs_read_bytes = secondary(shared_cap) * sys.fs_gbs;
    if (s.regime != Regime::kExternal && rng.bernoulli(0.3))
      d.external_in_bytes = secondary(shared_cap) * sys.external_gbs;

    spec.validate();
    s.tasks.push_back(std::move(spec));
  }
  sys.validate();

  s.expected_connected = weakly_connected(total, s.edges);
  return s;
}

}  // namespace wfr::check

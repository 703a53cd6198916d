#pragma once
// Umbrella header for the Workflow Roofline library: include this to get
// the whole public API.  Individual module headers remain includable on
// their own for faster builds.

// Foundations.
#include "util/error.hpp"     // IWYU pragma: export
#include "util/json.hpp"      // IWYU pragma: export
#include "util/logging.hpp"   // IWYU pragma: export
#include "util/strings.hpp"   // IWYU pragma: export
#include "util/table.hpp"     // IWYU pragma: export
#include "util/units.hpp"     // IWYU pragma: export

#include "math/fit.hpp"       // IWYU pragma: export
#include "math/matrix.hpp"    // IWYU pragma: export
#include "math/rng.hpp"       // IWYU pragma: export

// Workflow structure and execution.
#include "dag/graph.hpp"      // IWYU pragma: export
#include "dag/task.hpp"       // IWYU pragma: export
#include "dag/wdl.hpp"        // IWYU pragma: export

#include "trace/counters.hpp"  // IWYU pragma: export
#include "trace/summary.hpp"   // IWYU pragma: export
#include "trace/timeline.hpp"  // IWYU pragma: export

// Observability: metrics, resource probes, Chrome/Perfetto export.
#include "obs/chrome_trace.hpp"  // IWYU pragma: export
#include "obs/observation.hpp"   // IWYU pragma: export
#include "obs/probe.hpp"         // IWYU pragma: export
#include "obs/registry.hpp"      // IWYU pragma: export

#include "sim/cluster.hpp"  // IWYU pragma: export
#include "sim/engine.hpp"   // IWYU pragma: export
#include "sim/machine.hpp"  // IWYU pragma: export
#include "sim/runner.hpp"   // IWYU pragma: export

// The Workflow Roofline model.
#include "core/advisor.hpp"           // IWYU pragma: export
#include "core/characterization.hpp"  // IWYU pragma: export
#include "core/model.hpp"             // IWYU pragma: export
#include "core/compare.hpp"           // IWYU pragma: export
#include "core/pipeline.hpp"          // IWYU pragma: export
#include "core/system_spec.hpp"       // IWYU pragma: export
#include "core/taskview.hpp"          // IWYU pragma: export

// Visualization.
#include "plot/ascii.hpp"          // IWYU pragma: export
#include "plot/bar_plot.hpp"       // IWYU pragma: export
#include "plot/gantt_plot.hpp"     // IWYU pragma: export
#include "plot/roofline_plot.hpp"  // IWYU pragma: export

// Extensions and substrates.
#include "analytical/bgw_model.hpp"        // IWYU pragma: export
#include "analytical/cosmoflow_model.hpp"  // IWYU pragma: export
#include "analytical/gptune_model.hpp"     // IWYU pragma: export
#include "analytical/lcls_model.hpp"       // IWYU pragma: export
#include "analytical/provenance.hpp"       // IWYU pragma: export

#include "archetypes/generators.hpp"  // IWYU pragma: export
#include "autotune/control_flow.hpp"  // IWYU pragma: export
#include "autotune/tuner.hpp"         // IWYU pragma: export
#include "roofline/drilldown.hpp"     // IWYU pragma: export
#include "roofline/node_roofline.hpp" // IWYU pragma: export

#include "workflows/bgw.hpp"        // IWYU pragma: export
#include "workflows/cosmoflow.hpp"  // IWYU pragma: export
#include "workflows/gptune_wf.hpp"  // IWYU pragma: export
#include "workflows/lcls.hpp"       // IWYU pragma: export

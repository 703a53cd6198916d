#pragma once
// BerkeleyGW case study (paper Fig. 7): a traditional HPC chain bound by
// node-local performance.  Run at 64 nodes/task (batch mode, high
// throughput) or 1024 nodes/task (urgent single result).

#include "analytical/bgw_model.hpp"
#include "core/model.hpp"
#include "core/taskview.hpp"
#include "dag/graph.hpp"
#include "trace/timeline.hpp"

namespace wfr::workflows {

struct BgwStudyResult {
  int nodes_per_task = 0;
  dag::WorkflowGraph graph;
  trace::WorkflowTrace trace;
  core::WorkflowCharacterization characterization;
  core::RooflineModel model;
  core::TaskView task_view;          // Fig. 7c entries for this scale
  dag::CriticalPath critical_path;   // Fig. 7d overlay
};

/// Runs BGW at `nodes` per task (64 or 1024) on Perlmutter-GPU.
BgwStudyResult run_bgw(int nodes, const analytical::BgwParams& params = {});

/// The combined Fig. 7c task view: Epsilon/Sigma at both scales.
core::TaskView bgw_combined_task_view(const analytical::BgwParams& params = {});

}  // namespace wfr::workflows

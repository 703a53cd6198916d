#include "analytical/cosmoflow_model.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace wfr::analytical {

void CosmoFlowParams::validate() const {
  util::require(dataset_bytes > 0.0 && decompressed_bytes >= dataset_bytes,
                "CosmoFlow dataset volumes are inconsistent");
  util::require(samples >= 1.0 && hbm_bytes_per_sample > 0.0,
                "CosmoFlow sample model is inconsistent");
  util::require(nodes_per_instance >= 1 && epochs_per_instance >= 1,
                "CosmoFlow instance shape is inconsistent");
  util::require(usable_nodes >= nodes_per_instance,
                "CosmoFlow needs at least one instance worth of nodes");
}

double cosmoflow_pcie_bytes_per_node(const CosmoFlowParams& params) {
  params.validate();
  return params.decompressed_bytes /
         static_cast<double>(params.nodes_per_instance);
}

double cosmoflow_hbm_bytes_per_node(const CosmoFlowParams& params) {
  params.validate();
  return params.samples * params.hbm_bytes_per_sample /
         static_cast<double>(params.nodes_per_instance);
}

double cosmoflow_pcie_epoch_seconds(const CosmoFlowParams& params,
                                    double pcie_gbs_per_node) {
  util::require(pcie_gbs_per_node > 0.0, "PCIe rate must be > 0");
  return cosmoflow_pcie_bytes_per_node(params) / pcie_gbs_per_node;
}

double cosmoflow_hbm_epoch_seconds(const CosmoFlowParams& params,
                                   double hbm_gbs_per_node) {
  util::require(hbm_gbs_per_node > 0.0, "HBM rate must be > 0");
  return cosmoflow_hbm_bytes_per_node(params) / hbm_gbs_per_node;
}

int cosmoflow_max_instances(const CosmoFlowParams& params) {
  params.validate();
  return params.usable_nodes / params.nodes_per_instance;
}

dag::WorkflowGraph cosmoflow_graph(const CosmoFlowParams& params,
                                   int instances) {
  params.validate();
  util::require(instances >= 1, "need >= 1 instance");
  util::require(instances <= cosmoflow_max_instances(params),
                "%d instances exceed the %d-instance wall", instances,
                cosmoflow_max_instances(params));
  const double epochs = static_cast<double>(params.epochs_per_instance);
  dag::WorkflowGraph g(util::format("cosmoflow-%d", instances));
  for (int i = 0; i < instances; ++i) {
    dag::TaskSpec t;
    t.name = util::format("instance_%d", i);
    t.kind = "train";
    t.nodes = params.nodes_per_instance;
    // Every instance streams the shared dataset copy through the
    // filesystem once.
    t.demand.fs_read_bytes = params.dataset_bytes;
    t.demand.hbm_bytes_per_node = cosmoflow_hbm_bytes_per_node(params) * epochs;
    t.demand.pcie_bytes_per_node =
        cosmoflow_pcie_bytes_per_node(params) * epochs;
    g.add_task(std::move(t));
  }
  return g;
}

core::WorkflowCharacterization cosmoflow_characterization(
    const CosmoFlowParams& params, int instances) {
  params.validate();
  util::require(instances >= 1, "need >= 1 instance");
  const double epochs = static_cast<double>(params.epochs_per_instance);
  core::WorkflowCharacterization c;
  c.name = util::format("cosmoflow-%d", instances);
  // The unit of throughput is one epoch; one instance is one parallel slot
  // running epochs_per_instance tasks.
  c.total_tasks = instances * params.epochs_per_instance;
  c.parallel_tasks = instances;
  c.nodes_per_task = params.nodes_per_instance;
  c.hbm_bytes_per_node = cosmoflow_hbm_bytes_per_node(params) * epochs;
  c.pcie_bytes_per_node = cosmoflow_pcie_bytes_per_node(params) * epochs;
  // Paper normalization for Fig. 8: the filesystem ceiling is drawn at the
  // full per-instance dataset volume (2 TB @ 5.6 TB/s).
  c.fs_bytes_per_task = params.dataset_bytes;
  c.validate();
  return c;
}

}  // namespace wfr::analytical

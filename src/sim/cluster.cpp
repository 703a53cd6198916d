#include "sim/cluster.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wfr::sim {

Cluster::Cluster(int total_nodes) : total_nodes_(total_nodes) {
  util::require(total_nodes >= 1, "cluster must have >= 1 node");
}

bool Cluster::try_allocate(int count) {
  util::require(count >= 1, "allocation must request >= 1 node");
  util::require(count <= total_nodes_,
                "allocation of %d nodes exceeds cluster size %d", count,
                total_nodes_);
  if (count > free_nodes()) return false;
  used_nodes_ += count;
  peak_used_nodes_ = std::max(peak_used_nodes_, used_nodes_);
  return true;
}

void Cluster::release(int count) {
  util::require(count >= 1 && count <= used_nodes_,
                "release of %d nodes with %d in use", count, used_nodes_);
  used_nodes_ -= count;
}

}  // namespace wfr::sim

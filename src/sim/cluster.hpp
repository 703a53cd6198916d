#pragma once
// Count-based node allocator: the batch-scheduler abstraction the workflow
// runner uses.  Queue wait is intentionally excluded (the paper's makespan
// excludes queue time); the allocator only enforces the system parallelism
// wall — a task cannot start until enough nodes are free.

#include <cstdint>

namespace wfr::sim {

class Cluster {
 public:
  /// Creates a cluster with `total_nodes` (>= 1) nodes.
  explicit Cluster(int total_nodes);

  int total_nodes() const { return total_nodes_; }
  int free_nodes() const { return total_nodes_ - used_nodes_; }

  /// Attempts to reserve `count` nodes now.  Returns false when not enough
  /// are free.  Throws when count exceeds the cluster size or is < 1.
  bool try_allocate(int count);

  /// Returns `count` nodes to the free pool; throws when releasing more
  /// nodes than are in use.
  void release(int count);

  /// Highest concurrent node usage observed.
  int peak_used_nodes() const { return peak_used_nodes_; }

 private:
  int total_nodes_ = 0;
  int used_nodes_ = 0;
  int peak_used_nodes_ = 0;
};

}  // namespace wfr::sim

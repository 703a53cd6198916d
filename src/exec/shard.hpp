#pragma once
// Deterministic sharding of a SweepGrid across N worker processes.
//
// A shard is a pure function of the flat row index — no coordination, no
// shared state — so N processes (or N `wfr serve` backends) can each
// stream their slice independently and a merger can re-assemble the
// per-shard NDJSON streams byte-identical to the single-process
// `--stream` path: global row g belongs to shard g % count.  Every shard
// walks the whole grid's parameter space, so per-shard progress rates
// stay uniform even when cost varies along an axis.
//
// Each shard checkpoints independently (a shard-local prefix range — see
// exec/checkpoint.hpp) because its emission order is strictly increasing
// in the shard-local row index.  The merge is pure re-interleaving: read
// one line per global row from the owning shard's part file, in global
// order.  No parsing, no buffering beyond one line.

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace wfr::exec {

/// One shard of a sharded sweep: which slice of the grid this worker
/// owns.  The default (count 1, index 0) is the unsharded identity —
/// every row belongs to it.
struct ShardSpec {
  int count = 1;
  int index = 0;

  /// True when the grid is actually split (count > 1).
  bool sharded() const { return count > 1; }

  /// Throws InvalidArgument unless count >= 1 and 0 <= index < count.
  void validate() const;

  /// Number of rows of a `total`-row grid owned by this shard.
  std::size_t rows(std::size_t total) const;

  /// Global flat row index of this shard's `local`-th row.  Strictly
  /// increasing in `local`, so a shard's emission order is a prefix
  /// range in shard-local coordinates.
  std::size_t global_row(std::size_t local) const;
};

/// Re-interleaves per-shard NDJSON part files into `out` in global row
/// order: paths[i] must hold exactly shard i's rows (count =
/// paths.size()), one '\n'-terminated line per row.  The merged bytes are
/// identical to a single-process stream of the same grid.  Throws
/// InvalidArgument naming the offending path when a part file is missing,
/// short a row, missing its final newline, or has bytes past its last
/// expected row.
void merge_shard_outputs(const std::vector<std::string>& paths,
                         std::size_t total_rows, std::ostream& out);

}  // namespace wfr::exec

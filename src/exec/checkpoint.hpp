#pragma once
// Sweep checkpoint/resume.  A checkpoint records how far a streaming
// sweep got — which rows of the grid have been fully emitted and how
// many NDJSON bytes they occupy — keyed on the grid's fingerprint so a
// stale checkpoint can never be replayed against a different grid.
//
// Format (versioned JSON, written atomically via util::write_file_atomic):
//   {"wfr_sweep_checkpoint": 1,
//    "grid_hash": "<32 lowercase hex chars>",
//    "shard": {"count": N, "index": I},   (sharded only)
//    "completed": [[0, <rows>]],
//    "ndjson_bytes": <bytes>}
//
// Because stream_lines emits rows in strictly increasing order, the
// completed set is always a single prefix range [0, rows) in version 1;
// the range-list encoding leaves room for future non-prefix producers.
// Sharded sweeps checkpoint per shard: rows are *shard-local* (the
// shard's emission order is itself a strictly increasing prefix — see
// exec/shard.hpp) and the "shard" member pins the spec, so a checkpoint
// can never resume under a different shard split.  Unsharded checkpoints
// omit the member and stay byte-compatible with pre-shard readers.  The
// reader still accepts the "mode": "stride" that older builds wrote into
// the member and rejects any other mode.
// ndjson_bytes is the exact size of the output file after `rows` rows:
// on resume the partial file is truncated to this length (discarding any
// rows emitted after the last checkpoint) and appending continues at
// row `rows`, which re-assembles byte-identically to an uninterrupted
// run.  Writers must flush the output file *before* saving a checkpoint
// so the file is never shorter than ndjson_bytes, even after SIGKILL.

#include <cstdint>
#include <string>

#include "exec/shard.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace wfr::exec {

inline constexpr int kSweepCheckpointVersion = 1;

struct SweepCheckpoint {
  /// SweepGrid::grid_hash() of the grid this checkpoint belongs to.
  util::Hash128 grid_hash;
  /// Shard-local rows [0, rows) have been fully emitted.
  std::uint64_t rows = 0;
  /// Exact NDJSON output size, in bytes, after `rows` rows.
  std::uint64_t ndjson_bytes = 0;
  /// The shard this checkpoint tracks (default: the whole grid).
  ShardSpec shard;
};

/// Serializes to the versioned JSON document above.
util::Json checkpoint_to_json(const SweepCheckpoint& checkpoint);

/// Parses and validates a checkpoint document.  Throws ParseError on an
/// unknown version, a malformed shape, an invalid shard member (a
/// shard.mode other than "stride" included), or a completed set that is
/// not a single prefix range.
SweepCheckpoint checkpoint_from_json(const util::Json& json);

/// Writes `checkpoint` to `path` atomically (temp file + rename), so a
/// reader — including a resume after SIGKILL mid-save — never observes a
/// torn checkpoint.
void save_checkpoint(const std::string& path,
                     const SweepCheckpoint& checkpoint);

/// Reads and validates the checkpoint at `path`.  Every parse/shape
/// failure is rethrown with the offending path prefixed, so a corrupt
/// checkpoint dies loudly naming its file instead of silently restarting
/// the sweep from zero.
SweepCheckpoint load_checkpoint(const std::string& path);

/// Loads the checkpoint at `checkpoint_path` and cross-checks it against
/// the sweep it is about to resume: the grid fingerprint, the shard spec
/// (count and index must both match), the row count (`shard_rows` = rows
/// this shard owns), and the NDJSON output at `ndjson_path`, which must
/// exist and hold at least ndjson_bytes bytes.  Bytes past the
/// checkpoint (rows emitted after the last save) are truncated away so
/// appending from row `rows` re-assembles byte-identically.  Throws with
/// the offending path in every message.
SweepCheckpoint validate_resume(const std::string& checkpoint_path,
                                const util::Hash128& grid_hash,
                                const ShardSpec& shard,
                                std::uint64_t shard_rows,
                                const std::string& ndjson_path);

}  // namespace wfr::exec

#include "exec/checkpoint.hpp"

#include <filesystem>
#include <limits>

#include "util/error.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace wfr::exec {

util::Json checkpoint_to_json(const SweepCheckpoint& checkpoint) {
  util::JsonObject doc;
  doc.set("wfr_sweep_checkpoint", util::Json(kSweepCheckpointVersion));
  doc.set("grid_hash", util::Json(util::to_hex(checkpoint.grid_hash)));
  // Unsharded checkpoints omit the member so their bytes (and old
  // readers) are unchanged.
  if (checkpoint.shard.sharded()) {
    util::JsonObject shard;
    shard.set("count", util::Json(checkpoint.shard.count));
    shard.set("index", util::Json(checkpoint.shard.index));
    doc.set("shard", util::Json(std::move(shard)));
  }
  util::JsonArray range;
  range.emplace_back(std::int64_t{0});
  range.emplace_back(static_cast<std::int64_t>(checkpoint.rows));
  util::JsonArray completed;
  completed.emplace_back(std::move(range));
  doc.set("completed", util::Json(std::move(completed)));
  doc.set("ndjson_bytes",
          util::Json(static_cast<std::int64_t>(checkpoint.ndjson_bytes)));
  return util::Json(std::move(doc));
}

SweepCheckpoint checkpoint_from_json(const util::Json& json) {
  if (!json.is_object())
    throw util::ParseError("sweep checkpoint: document is not an object");
  const util::JsonObject& doc = json.as_object();
  const util::Json* version = doc.find("wfr_sweep_checkpoint");
  if (version == nullptr)
    throw util::ParseError(
        "sweep checkpoint: missing 'wfr_sweep_checkpoint' version marker");
  if (!version->is_number() ||
      version->as_int() != kSweepCheckpointVersion)
    throw util::ParseError(
        "sweep checkpoint: unsupported version " + version->dump() +
        " (this build reads version " +
        std::to_string(kSweepCheckpointVersion) + ")");

  SweepCheckpoint checkpoint;
  checkpoint.grid_hash = util::hash_from_hex(doc.at("grid_hash").as_string());

  if (const util::Json* shard = doc.find("shard")) {
    constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
    checkpoint.shard.count = static_cast<int>(shard->at("count").as_int_in(
        1, kIntMax, "sweep checkpoint: shard.count"));
    checkpoint.shard.index = static_cast<int>(shard->at("index").as_int_in(
        0, kIntMax, "sweep checkpoint: shard.index"));
    // Older builds wrote "mode": "stride", the only layout there is.
    const util::Json* mode = shard->as_object().find("mode");
    if (mode != nullptr &&
        !(mode->is_string() && mode->as_string() == "stride"))
      throw util::ParseError(
          "sweep checkpoint: shard.mode must be \"stride\" or absent, got " +
          mode->dump());
    try {
      checkpoint.shard.validate();
    } catch (const util::Error& e) {
      throw util::ParseError(std::string("sweep checkpoint: ") + e.what());
    }
  }

  const util::JsonArray& completed = doc.at("completed").as_array();
  if (completed.size() != 1)
    throw util::ParseError(
        "sweep checkpoint: 'completed' must hold exactly one range, got " +
        std::to_string(completed.size()));
  const util::JsonArray& range = completed.front().as_array();
  if (range.size() != 2)
    throw util::ParseError("sweep checkpoint: range must be [start, end]");
  const std::int64_t start = range[0].as_int();
  const std::int64_t end = range[1].as_int();
  if (start != 0 || end < 0)
    throw util::ParseError(
        "sweep checkpoint: completed range must be a [0, rows] prefix, got " +
        completed.front().dump());
  checkpoint.rows = static_cast<std::uint64_t>(end);

  const std::int64_t bytes = doc.at("ndjson_bytes").as_int();
  if (bytes < 0)
    throw util::ParseError("sweep checkpoint: ndjson_bytes must be >= 0");
  checkpoint.ndjson_bytes = static_cast<std::uint64_t>(bytes);
  return checkpoint;
}

void save_checkpoint(const std::string& path,
                     const SweepCheckpoint& checkpoint) {
  util::write_file_atomic(path, checkpoint_to_json(checkpoint).dump() + "\n");
}

SweepCheckpoint load_checkpoint(const std::string& path) {
  // read_file already names the path on IO failure; annotate everything
  // downstream (JSON syntax, shape, hex) with it too.
  const std::string text = util::read_file(path);
  try {
    return checkpoint_from_json(util::Json::parse(text));
  } catch (const util::Error& e) {
    throw util::ParseError("checkpoint '" + path + "': " + e.what());
  }
}

SweepCheckpoint validate_resume(const std::string& checkpoint_path,
                                const util::Hash128& grid_hash,
                                const ShardSpec& shard,
                                std::uint64_t shard_rows,
                                const std::string& ndjson_path) {
  const SweepCheckpoint ckpt = load_checkpoint(checkpoint_path);
  if (ckpt.grid_hash != grid_hash)
    throw util::InvalidArgument(
        "checkpoint '" + checkpoint_path +
        "' does not match this sweep grid (checkpoint " +
        util::to_hex(ckpt.grid_hash) + ", grid " + util::to_hex(grid_hash) +
        ")");
  util::require(
      ckpt.shard.count == shard.count && ckpt.shard.index == shard.index,
      "checkpoint '%s' was written by shard %d/%d but this run is shard "
      "%d/%d",
      checkpoint_path.c_str(), ckpt.shard.index, ckpt.shard.count,
      shard.index, shard.count);
  if (shard.sharded())
    util::require(ckpt.rows <= shard_rows,
                  "checkpoint '%s' records %llu rows but shard %d/%d owns "
                  "%llu rows",
                  checkpoint_path.c_str(),
                  static_cast<unsigned long long>(ckpt.rows), shard.index,
                  shard.count, static_cast<unsigned long long>(shard_rows));
  else
    util::require(ckpt.rows <= shard_rows,
                  "checkpoint '%s' records %llu rows but the grid has %llu "
                  "points",
                  checkpoint_path.c_str(),
                  static_cast<unsigned long long>(ckpt.rows),
                  static_cast<unsigned long long>(shard_rows));
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(ndjson_path, ec);
  if (ec)
    throw util::Error("cannot read '" + ndjson_path +
                      "' for resume: " + ec.message());
  util::require(size >= ckpt.ndjson_bytes,
                "'%s' is shorter than checkpoint '%s' records (%ju < %llu "
                "bytes)",
                ndjson_path.c_str(), checkpoint_path.c_str(), size,
                static_cast<unsigned long long>(ckpt.ndjson_bytes));
  // Rows emitted after the last checkpoint are re-evaluated: truncate the
  // file to the checkpointed byte count and append from there.
  if (size > ckpt.ndjson_bytes) {
    std::filesystem::resize_file(ndjson_path, ckpt.ndjson_bytes, ec);
    if (ec)
      throw util::Error("cannot write '" + ndjson_path +
                        "': truncate for resume failed: " + ec.message());
  }
  return ckpt;
}

}  // namespace wfr::exec

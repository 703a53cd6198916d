// Tests for the versioned sweep checkpoint format: JSON round trip,
// atomic save/load, and rejection of unknown versions and malformed
// shapes (a bad checkpoint must fail loudly, never resume silently).

#include "exec/checkpoint.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/file.hpp"

namespace wfr::exec {
namespace {

SweepCheckpoint sample() {
  SweepCheckpoint ckpt;
  ckpt.grid_hash = util::hash_bytes("some grid definition");
  ckpt.rows = 123456;
  ckpt.ndjson_bytes = 9876543;
  return ckpt;
}

TEST(SweepCheckpointTest, JsonRoundTrip) {
  const SweepCheckpoint before = sample();
  const util::Json doc = checkpoint_to_json(before);
  EXPECT_EQ(doc.at("wfr_sweep_checkpoint").as_int(), kSweepCheckpointVersion);
  EXPECT_EQ(doc.at("grid_hash").as_string(), util::to_hex(before.grid_hash));

  const SweepCheckpoint after = checkpoint_from_json(doc);
  EXPECT_EQ(after.grid_hash, before.grid_hash);
  EXPECT_EQ(after.rows, before.rows);
  EXPECT_EQ(after.ndjson_bytes, before.ndjson_bytes);
}

TEST(SweepCheckpointTest, SaveAndLoadFile) {
  const std::string path = testing::TempDir() + "wfr_ckpt_test.json";
  const SweepCheckpoint before = sample();
  save_checkpoint(path, before);
  // Atomic write leaves no temp file behind.
  EXPECT_THROW(util::read_file(path + ".tmp"), util::Error);
  const SweepCheckpoint after = load_checkpoint(path);
  EXPECT_EQ(after.grid_hash, before.grid_hash);
  EXPECT_EQ(after.rows, before.rows);
  EXPECT_EQ(after.ndjson_bytes, before.ndjson_bytes);
}

TEST(SweepCheckpointTest, RejectsUnknownVersion) {
  util::Json doc = checkpoint_to_json(sample());
  const std::string text = doc.dump();
  const std::string bumped =
      "{\"wfr_sweep_checkpoint\":999" +
      text.substr(text.find(',', 0));
  EXPECT_THROW(checkpoint_from_json(util::Json::parse(bumped)),
               util::ParseError);
}

TEST(SweepCheckpointTest, RejectsMalformedShapes) {
  // Not an object.
  EXPECT_THROW(checkpoint_from_json(util::Json::parse("[1,2]")),
               util::ParseError);
  // Missing version marker.
  EXPECT_THROW(checkpoint_from_json(util::Json::parse("{}")),
               util::ParseError);
  const std::string hash = util::to_hex(sample().grid_hash);
  // Completed set that is not a prefix range.
  EXPECT_THROW(
      checkpoint_from_json(util::Json::parse(
          "{\"wfr_sweep_checkpoint\":1,\"grid_hash\":\"" + hash +
          "\",\"completed\":[[5,10]],\"ndjson_bytes\":0}")),
      util::ParseError);
  // More than one range.
  EXPECT_THROW(
      checkpoint_from_json(util::Json::parse(
          "{\"wfr_sweep_checkpoint\":1,\"grid_hash\":\"" + hash +
          "\",\"completed\":[[0,5],[7,9]],\"ndjson_bytes\":0}")),
      util::ParseError);
  // Negative byte count.
  EXPECT_THROW(
      checkpoint_from_json(util::Json::parse(
          "{\"wfr_sweep_checkpoint\":1,\"grid_hash\":\"" + hash +
          "\",\"completed\":[[0,5]],\"ndjson_bytes\":-3}")),
      util::ParseError);
  // Malformed grid hash.
  EXPECT_THROW(
      checkpoint_from_json(util::Json::parse(
          "{\"wfr_sweep_checkpoint\":1,\"grid_hash\":\"nothex\","
          "\"completed\":[[0,5]],\"ndjson_bytes\":0}")),
      util::ParseError);
}

TEST(SweepCheckpointTest, LoadMissingFileThrows) {
  EXPECT_THROW(load_checkpoint("/nonexistent-dir/ckpt.json"), util::Error);
}

/// Runs `action`, expecting a util::Error, and returns its message so
/// callers can assert the offending path is named.
std::string error_message(const std::function<void()>& action) {
  try {
    action();
  } catch (const util::Error& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected a util::Error";
  return "";
}

TEST(SweepCheckpointTest, ShardMemberRoundTripsAndUnshardedOmitsIt) {
  SweepCheckpoint before = sample();
  before.shard = {3, 1};
  const util::Json doc = checkpoint_to_json(before);
  EXPECT_NE(doc.dump().find("\"shard\""), std::string::npos);
  // The split is always stride, so the member does not name a mode.
  EXPECT_EQ(doc.dump().find("\"mode\""), std::string::npos) << doc.dump();
  const SweepCheckpoint after = checkpoint_from_json(doc);
  EXPECT_EQ(after.shard.count, 3);
  EXPECT_EQ(after.shard.index, 1);
  EXPECT_EQ(after.rows, before.rows);

  // Unsharded checkpoints stay byte-compatible with pre-shard readers:
  // no "shard" member, and parsing defaults to the whole-grid identity.
  const util::Json unsharded = checkpoint_to_json(sample());
  EXPECT_EQ(unsharded.dump().find("\"shard\""), std::string::npos);
  EXPECT_FALSE(checkpoint_from_json(unsharded).shard.sharded());
}

TEST(SweepCheckpointTest, RejectsInvalidShardMember) {
  const std::string hash = util::to_hex(sample().grid_hash);
  // Index out of range.
  EXPECT_THROW(
      checkpoint_from_json(util::Json::parse(
          "{\"wfr_sweep_checkpoint\":1,\"grid_hash\":\"" + hash +
          "\",\"shard\":{\"count\":3,\"index\":3,\"mode\":\"stride\"},"
          "\"completed\":[[0,5]],\"ndjson_bytes\":0}")),
      util::ParseError);
  // Unknown mode.
  EXPECT_THROW(
      checkpoint_from_json(util::Json::parse(
          "{\"wfr_sweep_checkpoint\":1,\"grid_hash\":\"" + hash +
          "\",\"shard\":{\"count\":3,\"index\":0,\"mode\":\"spiral\"},"
          "\"completed\":[[0,5]],\"ndjson_bytes\":0}")),
      util::ParseError);
}

// Older builds wrote "mode" into the shard member: "stride" still loads,
// and "block", whose rows went to other shards, must fail naming the
// field rather than resume as a stride shard.
TEST(SweepCheckpointTest, BlockModeFailsAndStrideModeStillLoads) {
  const std::string hash = util::to_hex(sample().grid_hash);
  const auto doc = [&hash](const std::string& mode) {
    return "{\"wfr_sweep_checkpoint\":1,\"grid_hash\":\"" + hash +
           "\",\"shard\":{\"count\":3,\"index\":1" + mode +
           "},\"completed\":[[0,15]],\"ndjson_bytes\":4141}";
  };
  for (const char* mode : {",\"mode\":\"stride\"", ""}) {
    const SweepCheckpoint loaded =
        checkpoint_from_json(util::Json::parse(doc(mode)));
    EXPECT_EQ(loaded.shard.count, 3) << mode;
    EXPECT_EQ(loaded.shard.index, 1) << mode;
    EXPECT_EQ(loaded.rows, 15u) << mode;
    EXPECT_EQ(loaded.ndjson_bytes, 4141u) << mode;
  }

  const std::string path = testing::TempDir() + "wfr_ckpt_block_mode.json";
  util::write_file(path, doc(",\"mode\":\"block\""));
  std::string message;
  try {
    load_checkpoint(path);
    ADD_FAILURE() << "a block-mode checkpoint loaded";
  } catch (const util::ParseError& error) {
    message = error.what();
  }
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find("shard.mode"), std::string::npos) << message;
  EXPECT_NE(message.find("\"block\""), std::string::npos) << message;
  std::filesystem::remove(path);
  // A mode that is not a string fails the same way.
  EXPECT_THROW(checkpoint_from_json(util::Json::parse(doc(",\"mode\":1"))),
               util::ParseError);
}

TEST(SweepCheckpointTest, TruncatedFileFailsLoudlyWithPath) {
  const std::string path = testing::TempDir() + "wfr_ckpt_truncated.json";
  save_checkpoint(path, sample());
  // Simulate a torn write: keep only the first half of the document.
  const std::string text = util::read_file(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text.substr(0, text.size() / 2);
  }
  const std::string message =
      error_message([&] { load_checkpoint(path); });
  EXPECT_NE(message.find(path), std::string::npos) << message;
  std::filesystem::remove(path);
}

// validate_resume cross-checks — every rejection must name the file it
// rejected, so an operator staring at a failed resume knows which of the
// N per-shard checkpoints (or outputs) is the corrupt one.
class ValidateResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Tests run as parallel ctest processes sharing TempDir; the test
    // name keeps concurrent fixtures off each other's files.
    const std::string stem =
        testing::TempDir() + "wfr_resume_" +
        testing::UnitTest::GetInstance()->current_test_info()->name();
    checkpoint_path_ = stem + "_ckpt.json";
    ndjson_path_ = stem + "_out.ndjson";
  }
  void TearDown() override {
    std::filesystem::remove(checkpoint_path_);
    std::filesystem::remove(ndjson_path_);
  }
  void write_ndjson(const std::string& contents) {
    std::ofstream out(ndjson_path_, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  std::string checkpoint_path_;
  std::string ndjson_path_;
};

TEST_F(ValidateResumeTest, AcceptsMatchingStateAndTruncatesTailRows) {
  SweepCheckpoint ckpt = sample();
  ckpt.rows = 2;
  ckpt.ndjson_bytes = 10;
  save_checkpoint(checkpoint_path_, ckpt);
  // Two checkpointed rows (10 bytes) plus one row emitted after the last
  // save: the tail must be truncated away so appending re-assembles.
  write_ndjson("row1\nrow2\nrow3\n");
  const SweepCheckpoint resumed = validate_resume(
      checkpoint_path_, ckpt.grid_hash, ShardSpec{}, 5, ndjson_path_);
  EXPECT_EQ(resumed.rows, 2u);
  EXPECT_EQ(std::filesystem::file_size(ndjson_path_), 10u);
  EXPECT_EQ(util::read_file(ndjson_path_), "row1\nrow2\n");
}

TEST_F(ValidateResumeTest, FlippedGridHashIsRejectedWithPath) {
  const SweepCheckpoint ckpt = sample();
  save_checkpoint(checkpoint_path_, ckpt);
  write_ndjson("");
  util::Hash128 other = ckpt.grid_hash;
  other.lo ^= 1;  // one bit off — a different grid definition
  const std::string message = error_message([&] {
    validate_resume(checkpoint_path_, other, ShardSpec{}, 1u << 20,
                    ndjson_path_);
  });
  EXPECT_NE(message.find(checkpoint_path_), std::string::npos) << message;
  EXPECT_NE(message.find("does not match this sweep grid"),
            std::string::npos)
      << message;
}

TEST_F(ValidateResumeTest, ShardSpecMismatchIsRejectedWithPath) {
  SweepCheckpoint ckpt = sample();
  ckpt.rows = 1;
  ckpt.ndjson_bytes = 0;
  ckpt.shard = {2, 0};
  save_checkpoint(checkpoint_path_, ckpt);
  write_ndjson("");
  const std::string message = error_message([&] {
    validate_resume(checkpoint_path_, ckpt.grid_hash,
                    ShardSpec{3, 0}, 10, ndjson_path_);
  });
  EXPECT_NE(message.find(checkpoint_path_), std::string::npos) << message;
  EXPECT_NE(message.find("was written by shard"), std::string::npos)
      << message;
}

TEST_F(ValidateResumeTest, RowsPastTheGridAreRejected) {
  SweepCheckpoint ckpt = sample();
  ckpt.rows = 10;
  ckpt.ndjson_bytes = 0;
  save_checkpoint(checkpoint_path_, ckpt);
  write_ndjson("");
  const std::string message = error_message([&] {
    validate_resume(checkpoint_path_, ckpt.grid_hash, ShardSpec{}, 5,
                    ndjson_path_);
  });
  EXPECT_NE(message.find(checkpoint_path_), std::string::npos) << message;
  EXPECT_NE(message.find("records 10 rows"), std::string::npos) << message;
}

// A shard's checkpoint counts the shard's own rows, so the message names
// the shard and its row count, not the grid's point count.
TEST_F(ValidateResumeTest, RowsPastTheShardAreRejectedNamingTheShard) {
  SweepCheckpoint ckpt = sample();
  ckpt.rows = 16;
  ckpt.ndjson_bytes = 0;
  ckpt.shard = {3, 1};
  save_checkpoint(checkpoint_path_, ckpt);
  write_ndjson("");
  const std::string message = error_message([&] {
    validate_resume(checkpoint_path_, ckpt.grid_hash, ShardSpec{3, 1}, 15,
                    ndjson_path_);
  });
  EXPECT_NE(message.find(checkpoint_path_), std::string::npos) << message;
  EXPECT_NE(message.find("records 16 rows but shard 1/3 owns 15 rows"),
            std::string::npos)
      << message;
}

TEST_F(ValidateResumeTest, BytesPastEndOfOutputAreRejectedWithBothPaths) {
  SweepCheckpoint ckpt = sample();
  ckpt.rows = 2;
  ckpt.ndjson_bytes = 10000;  // claims more output than exists
  save_checkpoint(checkpoint_path_, ckpt);
  write_ndjson("row1\n");
  const std::string message = error_message([&] {
    validate_resume(checkpoint_path_, ckpt.grid_hash, ShardSpec{}, 5,
                    ndjson_path_);
  });
  EXPECT_NE(message.find(ndjson_path_), std::string::npos) << message;
  EXPECT_NE(message.find(checkpoint_path_), std::string::npos) << message;
  EXPECT_NE(message.find("shorter than checkpoint"), std::string::npos)
      << message;
}

TEST_F(ValidateResumeTest, MissingOutputFileNamesThePath) {
  const SweepCheckpoint ckpt = sample();
  save_checkpoint(checkpoint_path_, ckpt);
  const std::string message = error_message([&] {
    validate_resume(checkpoint_path_, ckpt.grid_hash, ShardSpec{},
                    1u << 21, ndjson_path_);
  });
  EXPECT_NE(message.find(ndjson_path_), std::string::npos) << message;
  EXPECT_NE(message.find("cannot read"), std::string::npos) << message;
}

}  // namespace
}  // namespace wfr::exec

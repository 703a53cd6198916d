// Tests for deterministic grid sharding (exec/shard.hpp): the partition
// properties the stride split guarantees (disjoint cover of every row,
// strictly increasing per-shard emission order, g % count as the exact
// inverse of global_row) and the merge protocol, which must re-assemble
// per-shard NDJSON part files byte-identical to a single stream and fail
// loudly — naming the offending path — on every malformed part.

#include "exec/shard.hpp"

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wfr::exec {
namespace {

TEST(ShardSpecTest, ValidateRejectsBadSpecs) {
  EXPECT_THROW((ShardSpec{0, 0}).validate(), util::InvalidArgument);
  EXPECT_THROW((ShardSpec{-2, 0}).validate(), util::InvalidArgument);
  EXPECT_THROW((ShardSpec{4, -1}).validate(), util::InvalidArgument);
  EXPECT_THROW((ShardSpec{4, 4}).validate(), util::InvalidArgument);
  EXPECT_NO_THROW(ShardSpec{}.validate());  // unsharded identity
  EXPECT_NO_THROW((ShardSpec{4, 3}).validate());
  EXPECT_FALSE(ShardSpec{}.sharded());
  EXPECT_TRUE((ShardSpec{2, 0}).sharded());
}

TEST(ShardSpecTest, StrideInterleaves) {
  const ShardSpec stride{3, 1};
  EXPECT_EQ(stride.rows(10), 3u);  // global rows 1, 4, 7
  EXPECT_EQ(stride.global_row(0), 1u);
  EXPECT_EQ(stride.global_row(2), 7u);
  // Shard 2 of 3 owns rows 2, 5 and 8 of a 10-row grid, none of a 2-row one.
  EXPECT_EQ((ShardSpec{3, 2}).rows(10), 3u);
  EXPECT_EQ((ShardSpec{3, 2}).rows(2), 0u);
}

// The load-bearing property behind per-shard prefix checkpoints and the
// merge protocol: for any (total, count), the shards partition
// [0, total) — every global row is owned exactly once, each shard's
// global_row is strictly increasing in the local index, and g % count
// (the owner the merge reads row g from) inverts it.
TEST(ShardSpecTest, PartitionCoversEveryRowExactlyOnce) {
  for (const std::size_t total :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{64},
        std::size_t{101}}) {
    for (const int count : {1, 2, 3, 8, 13}) {
      std::vector<int> owner(total, -1);
      std::size_t covered = 0;
      for (int i = 0; i < count; ++i) {
        const ShardSpec shard{count, i};
        std::size_t previous = 0;
        for (std::size_t local = 0; local < shard.rows(total); ++local) {
          const std::size_t global = shard.global_row(local);
          ASSERT_LT(global, total) << "count=" << count;
          EXPECT_EQ(owner[global], -1) << "global row " << global
                                       << " owned by two shards";
          owner[global] = i;
          if (local > 0) {
            EXPECT_GT(global, previous);
          }
          previous = global;
          EXPECT_EQ(global % static_cast<std::size_t>(count),
                    static_cast<std::size_t>(i));
          ++covered;
        }
      }
      EXPECT_EQ(covered, total) << "count=" << count;
    }
  }
}

TEST(ShardSpecTest, CountOneIsTheIdentity) {
  const ShardSpec whole{1, 0};
  EXPECT_EQ(whole.rows(17), 17u);
  for (std::size_t g = 0; g < 17; ++g) {
    EXPECT_EQ(whole.global_row(g), g);
  }
}

/// Writes per-shard part files under TempDir and removes them on exit.
class MergeShardTest : public ::testing::Test {
 protected:
  std::string write_part(int index, const std::string& contents) {
    // Tests run as parallel ctest processes sharing TempDir; the test
    // name keeps concurrent fixtures off each other's part files.
    const std::string path =
        testing::TempDir() + "wfr_test_shard_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_part" + std::to_string(index) + ".ndjson";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
    out.close();
    written_.push_back(path);
    return path;
  }

  /// Part files for `count` shards of `total` rows, each row "row<g>\n".
  std::vector<std::string> write_parts(int count, std::size_t total) {
    std::vector<std::string> paths;
    for (int i = 0; i < count; ++i) {
      const ShardSpec shard{count, i};
      std::string contents;
      for (std::size_t local = 0; local < shard.rows(total); ++local)
        contents += "row" + std::to_string(shard.global_row(local)) + "\n";
      paths.push_back(write_part(i, contents));
    }
    return paths;
  }

  static std::string merge_message(const std::function<void()>& merge) {
    try {
      merge();
    } catch (const util::InvalidArgument& error) {
      return error.what();
    }
    ADD_FAILURE() << "merge did not throw";
    return "";
  }

  void TearDown() override {
    for (const std::string& path : written_)
      std::filesystem::remove(path);
  }

  std::vector<std::string> written_;
};

TEST_F(MergeShardTest, ReassemblesGlobalOrder) {
  const std::size_t total = 7;
  std::string expected;
  for (std::size_t g = 0; g < total; ++g)
    expected += "row" + std::to_string(g) + "\n";
  const std::vector<std::string> paths = write_parts(3, total);
  std::ostringstream merged;
  merge_shard_outputs(paths, total, merged);
  EXPECT_EQ(merged.str(), expected);
}

TEST_F(MergeShardTest, SinglePartIsTheIdentity) {
  const std::vector<std::string> paths = write_parts(1, 5);
  std::ostringstream merged;
  merge_shard_outputs(paths, 5, merged);
  EXPECT_EQ(merged.str(), "row0\nrow1\nrow2\nrow3\nrow4\n");
}

TEST_F(MergeShardTest, EmptyPathListIsRejected) {
  std::ostringstream merged;
  EXPECT_THROW(merge_shard_outputs({}, 0, merged), util::InvalidArgument);
}

TEST_F(MergeShardTest, MissingPartNamesThePath) {
  std::vector<std::string> paths = write_parts(2, 4);
  paths[1] = testing::TempDir() + "wfr_test_shard_nonexistent.ndjson";
  std::ostringstream merged;
  const std::string message =
      merge_message([&] { merge_shard_outputs(paths, 4, merged); });
  EXPECT_NE(message.find(paths[1]), std::string::npos) << message;
  EXPECT_NE(message.find("cannot open"), std::string::npos) << message;
}

TEST_F(MergeShardTest, ShortPartNamesPathAndRow) {
  // Shard 1 of 2 owns global rows 1 and 3; drop its second row.
  std::vector<std::string> paths = write_parts(2, 4);
  paths[1] = write_part(1, "row1\n");
  std::ostringstream merged;
  const std::string message =
      merge_message([&] { merge_shard_outputs(paths, 4, merged); });
  EXPECT_NE(message.find(paths[1]), std::string::npos) << message;
  EXPECT_NE(message.find("unexpected end of file at global row 3"),
            std::string::npos)
      << message;
}

TEST_F(MergeShardTest, MissingTrailingNewlineIsATruncatedWrite) {
  std::vector<std::string> paths = write_parts(2, 4);
  paths[0] = write_part(0, "row0\nrow2");  // last row lost its newline
  std::ostringstream merged;
  const std::string message =
      merge_message([&] { merge_shard_outputs(paths, 4, merged); });
  EXPECT_NE(message.find(paths[0]), std::string::npos) << message;
  EXPECT_NE(message.find("missing trailing newline"), std::string::npos)
      << message;
}

TEST_F(MergeShardTest, TrailingDataPastTheLastRowIsRejected) {
  std::vector<std::string> paths = write_parts(2, 4);
  paths[1] = write_part(1, "row1\nrow3\nrow5\n");  // one row too many
  std::ostringstream merged;
  const std::string message =
      merge_message([&] { merge_shard_outputs(paths, 4, merged); });
  EXPECT_NE(message.find(paths[1]), std::string::npos) << message;
  EXPECT_NE(message.find("trailing data"), std::string::npos) << message;
}

}  // namespace
}  // namespace wfr::exec

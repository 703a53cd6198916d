#include "exec/shard.hpp"

#include <fstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace wfr::exec {

void ShardSpec::validate() const {
  util::require(count >= 1, "shard count must be >= 1, got %d", count);
  util::require(index >= 0 && index < count,
                "shard index %d out of range [0, %d)", index, count);
}

std::size_t ShardSpec::rows(std::size_t total) const {
  const std::size_t n = static_cast<std::size_t>(count);
  const std::size_t i = static_cast<std::size_t>(index);
  // Rows g in [0, total) with g % count == index.
  return total > i ? (total - i - 1) / n + 1 : 0;
}

std::size_t ShardSpec::global_row(std::size_t local) const {
  return static_cast<std::size_t>(index) +
         local * static_cast<std::size_t>(count);
}

void merge_shard_outputs(const std::vector<std::string>& paths,
                         std::size_t total_rows, std::ostream& out) {
  util::require(!paths.empty(), "shard merge needs at least one part file");

  std::vector<std::ifstream> parts;
  parts.reserve(paths.size());
  for (const std::string& path : paths) {
    parts.emplace_back(path, std::ios::binary);
    util::require(static_cast<bool>(parts.back()),
                  "shard part '%s': cannot open", path.c_str());
  }

  // Re-interleave: one line per global row, read from the owning shard's
  // part in global order.  The line buffer is reused across rows.
  std::string line;
  for (std::size_t global = 0; global < total_rows; ++global) {
    const std::size_t shard = global % parts.size();
    std::ifstream& in = parts[shard];
    if (!std::getline(in, line))
      throw util::InvalidArgument(util::format(
          "shard part '%s': unexpected end of file at global row %zu",
          paths[shard].c_str(), global));
    // getline that ran into EOF before the delimiter still succeeds; a
    // part whose last row lost its newline is a truncated write, not a
    // mergeable stream.
    if (in.eof())
      throw util::InvalidArgument(util::format(
          "shard part '%s': missing trailing newline at global row %zu",
          paths[shard].c_str(), global));
    out << line << '\n';
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].peek() != std::ifstream::traits_type::eof())
      throw util::InvalidArgument(
          "shard part '" + paths[i] +
          "': trailing data past this shard's last row");
  }
  util::require(static_cast<bool>(out),
                "shard merge: writing merged output failed");
}

}  // namespace wfr::exec

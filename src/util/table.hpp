#pragma once
// Plain-text table formatting used by benchmark harness output and the CLI
// to print paper-vs-measured series in aligned columns.

#include <string>
#include <string_view>
#include <vector>

namespace wfr::util {

/// Column alignment within a TextTable.
enum class Align { kLeft, kRight };

/// Builds a monospace table:
///
///   TextTable t({"series", "paper", "measured"});
///   t.add_row({"good day", "17 min", "17.1 min"});
///   std::cout << t.str();
class TextTable {
 public:
  /// Creates a table with the given header; all columns default to
  /// left-aligned except those set via set_align().
  explicit TextTable(std::vector<std::string> header);

  /// Sets the alignment of column `index`.
  void set_align(std::size_t index, Align align);

  /// Appends a data row.  Rows shorter than the header are padded with
  /// empty cells; longer rows extend the column count.
  void add_row(std::vector<std::string> row);

  /// Renders the table, including a rule under the header.
  std::string str() const;

 private:
  std::vector<std::string> header_;
  std::vector<Align> aligns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace wfr::util

#include "util/table.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace wfr::util {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)), aligns_(header_.size(), Align::kLeft) {}

void TextTable::set_align(std::size_t index, Align align) {
  if (index >= aligns_.size()) aligns_.resize(index + 1, Align::kLeft);
  aligns_[index] = align;
}

void TextTable::add_row(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string TextTable::str() const {
  std::size_t columns = header_.size();
  for (const auto& r : rows_) columns = std::max(columns, r.size());

  std::vector<std::size_t> widths(columns, 0);
  auto measure = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i)
      widths[i] = std::max(widths[i], cells[i].size());
  };
  measure(header_);
  for (const auto& r : rows_) measure(r);

  auto render_row = [&](const std::vector<std::string>& cells) {
    std::string line;
    for (std::size_t i = 0; i < columns; ++i) {
      const std::string cell = i < cells.size() ? cells[i] : "";
      const Align a = i < aligns_.size() ? aligns_[i] : Align::kLeft;
      line += (a == Align::kLeft) ? pad_right(cell, widths[i])
                                  : pad_left(cell, widths[i]);
      if (i + 1 < columns) line += "  ";
    }
    // Trim trailing spaces from left-aligned last columns.
    while (!line.empty() && line.back() == ' ') line.pop_back();
    return line + "\n";
  };

  std::string rule;
  for (std::size_t i = 0; i < columns; ++i) {
    rule += std::string(widths[i], '-');
    if (i + 1 < columns) rule += "  ";
  }
  rule += "\n";

  std::string out = render_row(header_);
  out += rule;
  for (const auto& r : rows_) out += render_row(r);
  return out;
}

}  // namespace wfr::util

#include "midas/util/table_printer.h"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace midas {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto print_rule = [&] {
    os << '+';
    for (size_t w : widths) {
      os << std::string(w + 2, '-') << '+';
    }
    os << '\n';
  };
  auto print_cells = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = cells[c];
      os << ' ' << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    os << '\n';
  };

  print_rule();
  print_cells(headers_);
  print_rule();
  for (const auto& row : rows_) print_cells(row);
  print_rule();
}

std::string TablePrinter::ToString() const {
  std::ostringstream os;
  Print(os);
  return os.str();
}

}  // namespace midas

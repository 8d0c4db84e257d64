#ifndef MIDAS_UTIL_TABLE_PRINTER_H_
#define MIDAS_UTIL_TABLE_PRINTER_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace midas {

/// Renders aligned ASCII tables for the benchmark harnesses, so each bench
/// prints rows in the same shape as the corresponding paper table/figure.
///
///   TablePrinter t({"method", "precision", "recall", "f-measure"});
///   t.AddRow({"MIDAS", "0.92", "0.88", "0.90"});
///   t.Print(std::cout);
class TablePrinter {
 public:
  /// Creates a table with the given column headers.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends one row; missing cells render empty, extra cells are dropped.
  void AddRow(std::vector<std::string> cells);

  /// Renders with column alignment, a header rule, and `|` delimiters.
  void Print(std::ostream& os) const;

  /// Renders to a string (same format as Print).
  std::string ToString() const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;  // each headers_.size() wide
};

}  // namespace midas

#endif  // MIDAS_UTIL_TABLE_PRINTER_H_

#ifndef MIDAS_EVAL_REPORT_H_
#define MIDAS_EVAL_REPORT_H_

#include <string>
#include <utility>
#include <vector>

#include "midas/core/types.h"
#include "midas/eval/metrics.h"
#include "midas/rdf/dictionary.h"
#include "midas/util/json.h"
#include "midas/util/status.h"

namespace midas {
namespace eval {

/// Machine-readable experiment artifacts. Every figure harness can emit
/// its measurements as JSON alongside the human-readable tables, so runs
/// are diffable and plottable without re-parsing ASCII tables.
class ExperimentReport {
 public:
  /// `name` identifies the experiment (e.g. "fig9_coverage").
  explicit ExperimentReport(std::string name);

  /// Adds one measurement row: a named series (e.g. method), an x
  /// coordinate (e.g. coverage or k), and named metric values.
  void AddRow(const std::string& series, double x,
              const std::vector<std::pair<std::string, double>>& metrics);

  /// Convenience: adds precision/recall/f-measure from PrfScores.
  void AddPrfRow(const std::string& series, double x,
                 const PrfScores& scores);

  /// Attaches a free-form context string (dataset description, seed...).
  void SetContext(const std::string& key, const std::string& value);

  /// Builds the JSON document.
  JsonValue ToJson() const;

  /// Serializes to a file (pretty-printed).
  Status WriteTo(const std::string& path) const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<JsonValue> rows_;
};

}  // namespace eval
}  // namespace midas

#endif  // MIDAS_EVAL_REPORT_H_

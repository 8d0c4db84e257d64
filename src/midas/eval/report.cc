#include "midas/eval/report.h"

#include <algorithm>

#include "midas/store/atomic_file.h"

namespace midas {
namespace eval {

ExperimentReport::ExperimentReport(std::string name)
    : name_(std::move(name)) {}

void ExperimentReport::AddRow(
    const std::string& series, double x,
    const std::vector<std::pair<std::string, double>>& metrics) {
  JsonValue row = JsonValue::Object();
  row.Set("series", JsonValue::Str(series));
  row.Set("x", JsonValue::Number(x));
  for (const auto& [key, value] : metrics) {
    row.Set(key, JsonValue::Number(value));
  }
  rows_.push_back(std::move(row));
}

void ExperimentReport::AddPrfRow(const std::string& series, double x,
                                 const PrfScores& scores) {
  AddRow(series, x,
         {{"precision", scores.precision},
          {"recall", scores.recall},
          {"f_measure", scores.f_measure},
          {"returned", static_cast<double>(scores.returned)},
          {"matched", static_cast<double>(scores.matched)},
          {"expected", static_cast<double>(scores.expected)}});
}

void ExperimentReport::SetContext(const std::string& key,
                                  const std::string& value) {
  for (auto& [k, v] : context_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  context_.emplace_back(key, value);
}

JsonValue ExperimentReport::ToJson() const {
  JsonValue root = JsonValue::Object();
  root.Set("experiment", JsonValue::Str(name_));
  JsonValue context = JsonValue::Object();
  for (const auto& [k, v] : context_) {
    context.Set(k, JsonValue::Str(v));
  }
  root.Set("context", std::move(context));
  JsonValue rows = JsonValue::Array();
  for (const auto& row : rows_) rows.Append(row);
  root.Set("rows", std::move(rows));
  return root;
}

Status ExperimentReport::WriteTo(const std::string& path) const {
  // Atomic replace: a crash mid-write can't leave a torn report behind.
  return store::AtomicWriteFile(path, ToJson().Dump(2) + "\n");
}

}  // namespace eval
}  // namespace midas

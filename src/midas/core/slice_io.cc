#include "midas/core/slice_io.h"

#include <algorithm>
#include <unordered_set>

#include "midas/util/string_util.h"
#include "midas/util/tsv.h"

namespace midas {
namespace core {

Status SaveSlices(const std::string& path, const rdf::Dictionary& dict,
                  const std::vector<DiscoveredSlice>& slices) {
  std::string contents;
  for (const auto& slice : slices) {
    TsvAppendRow({"S", slice.source_url, FormatDouble(slice.profit, 6),
                  std::to_string(slice.num_new_facts)},
                 &contents);
    for (const auto& prop : slice.properties) {
      TsvAppendRow({"P", dict.Term(prop.predicate), dict.Term(prop.value)},
                   &contents);
    }
    for (const auto& fact : slice.facts) {
      TsvAppendRow({"F", dict.Term(fact.subject), dict.Term(fact.predicate),
                    dict.Term(fact.object)},
                   &contents);
    }
  }
  return TsvWriteFile(path, contents);
}

Status LoadSlices(const std::string& path, rdf::Dictionary* dict,
                  std::vector<DiscoveredSlice>* out) {
  std::vector<DiscoveredSlice> loaded;
  Status status = TsvReadFile(
      path, [&](size_t row, const std::vector<std::string>& fields) {
        auto bad = [&](const char* why) {
          return Status::Corruption(path + " row " + std::to_string(row) +
                                    ": " + why);
        };
        if (fields.empty()) return bad("empty row");
        const std::string& tag = fields[0];
        if (tag == "S") {
          if (fields.size() != 4) return bad("S row needs 4 fields");
          DiscoveredSlice slice;
          slice.source_url = fields[1];
          double profit = 0;
          uint64_t fresh = 0;
          if (!ParseDouble(fields[2], &profit)) return bad("bad profit");
          if (!ParseUint64(fields[3], &fresh)) return bad("bad new-count");
          slice.profit = profit;
          slice.num_new_facts = fresh;
          loaded.push_back(std::move(slice));
          return Status::OK();
        }
        if (loaded.empty()) return bad("P/F row before any S row");
        DiscoveredSlice& slice = loaded.back();
        if (tag == "P") {
          if (fields.size() != 3) return bad("P row needs 3 fields");
          slice.properties.push_back(PropertyPair{
              dict->Intern(fields[1]), dict->Intern(fields[2])});
          return Status::OK();
        }
        if (tag == "F") {
          if (fields.size() != 4) return bad("F row needs 4 fields");
          slice.facts.emplace_back(dict->Intern(fields[1]),
                                   dict->Intern(fields[2]),
                                   dict->Intern(fields[3]));
          return Status::OK();
        }
        return bad("unknown row tag");
      });
  MIDAS_RETURN_IF_ERROR(status);

  // Derive counts and entity lists.
  for (auto& slice : loaded) {
    slice.num_facts = slice.facts.size();
    std::unordered_set<rdf::TermId> subjects;
    for (const auto& fact : slice.facts) subjects.insert(fact.subject);
    slice.entities.assign(subjects.begin(), subjects.end());
    std::sort(slice.entities.begin(), slice.entities.end());
    std::sort(slice.properties.begin(), slice.properties.end());
    out->push_back(std::move(slice));
  }
  return Status::OK();
}

JsonValue SliceToJson(const DiscoveredSlice& slice,
                      const rdf::Dictionary& dict) {
  JsonValue row = JsonValue::Object();
  row.Set("source_url", JsonValue::Str(slice.source_url));
  row.Set("description", JsonValue::Str(slice.Description(dict)));
  JsonValue props = JsonValue::Array();
  for (const auto& p : slice.properties) {
    JsonValue prop = JsonValue::Object();
    prop.Set("predicate", JsonValue::Str(dict.Term(p.predicate)));
    prop.Set("value", JsonValue::Str(dict.Term(p.value)));
    props.Append(std::move(prop));
  }
  row.Set("properties", std::move(props));
  row.Set("num_facts", JsonValue::Int(static_cast<int64_t>(slice.num_facts)));
  row.Set("num_new_facts",
          JsonValue::Int(static_cast<int64_t>(slice.num_new_facts)));
  row.Set("profit", JsonValue::Number(slice.profit));
  return row;
}

JsonValue SlicesToJson(const std::vector<DiscoveredSlice>& slices,
                       const rdf::Dictionary& dict, size_t limit) {
  JsonValue rows = JsonValue::Array();
  const size_t count =
      limit == 0 ? slices.size() : std::min(limit, slices.size());
  for (size_t i = 0; i < count; ++i) rows.Append(SliceToJson(slices[i], dict));
  return rows;
}

}  // namespace core
}  // namespace midas

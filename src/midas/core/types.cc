#include "midas/core/types.h"

#include <algorithm>

namespace midas {
namespace core {

std::string DiscoveredSlice::Description(const rdf::Dictionary& dict) const {
  if (properties.empty()) return "*";
  std::string out;
  for (size_t i = 0; i < properties.size(); ++i) {
    if (i > 0) out += " & ";
    out += dict.Term(properties[i].predicate);
    out += "=";
    out += dict.Term(properties[i].value);
  }
  return out;
}

bool RanksBefore(const DiscoveredSlice& a, const DiscoveredSlice& b) {
  if (a.profit != b.profit) return a.profit > b.profit;
  if (a.source_url != b.source_url) return a.source_url < b.source_url;
  if (a.properties.size() != b.properties.size()) {
    return a.properties.size() > b.properties.size();
  }
  return a.properties < b.properties;
}

void SortByProfitDesc(std::vector<DiscoveredSlice>* slices) {
  std::sort(slices->begin(), slices->end(), RanksBefore);
}

}  // namespace core
}  // namespace midas

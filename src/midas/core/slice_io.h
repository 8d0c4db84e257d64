#ifndef MIDAS_CORE_SLICE_IO_H_
#define MIDAS_CORE_SLICE_IO_H_

#include <string>
#include <vector>

#include "midas/core/types.h"
#include "midas/rdf/dictionary.h"
#include "midas/util/json.h"
#include "midas/util/status.h"

namespace midas {
namespace core {

/// Persistence for discovered slice sets ("extraction work plans").
///
/// Line-oriented TSV, self-contained (terms as strings, so no shared
/// dictionary is needed to reload):
///
///   S <url> <profit> <num_new_facts>     -- starts a slice
///   P <predicate> <value>                -- one defining property
///   F <subject> <predicate> <object>     -- one fact of the slice
///
/// Rows belong to the most recent S row. Entity lists are reconstructed
/// from the distinct fact subjects; num_facts from the F row count.

/// Writes `slices` to `path`, resolving ids through `dict`.
Status SaveSlices(const std::string& path, const rdf::Dictionary& dict,
                  const std::vector<DiscoveredSlice>& slices);

/// Reads slices from `path`, interning terms into `dict`. Appends to
/// `out`.
Status LoadSlices(const std::string& path, rdf::Dictionary* dict,
                  std::vector<DiscoveredSlice>* out);

/// One row of the JSON slice list: source_url, description, properties
/// [{predicate, value}], num_facts, num_new_facts, profit, terms resolved
/// through `dict`.
JsonValue SliceToJson(const DiscoveredSlice& slice,
                      const rdf::Dictionary& dict);

/// The JSON slice list of `discover --json` and `/discover`: SliceToJson
/// of the first `limit` slices (0 = all).
JsonValue SlicesToJson(const std::vector<DiscoveredSlice>& slices,
                       const rdf::Dictionary& dict, size_t limit = 0);

}  // namespace core
}  // namespace midas

#endif  // MIDAS_CORE_SLICE_IO_H_

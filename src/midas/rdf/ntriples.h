#ifndef MIDAS_RDF_NTRIPLES_H_
#define MIDAS_RDF_NTRIPLES_H_

#include <string>
#include <vector>

#include "midas/rdf/dictionary.h"
#include "midas/rdf/triple.h"
#include "midas/util/status.h"

namespace midas {
namespace rdf {

/// Reader and writer for the repository's fact interchange format: plain
/// 3-column TSV, subject / predicate / object per row (see midas/util/tsv.h
/// for escaping, comments and blank lines) — the format automated
/// extraction pipelines typically emit, and the KB format of
/// `midas generate --kb` and `midas discover --kb`.

/// Loads a 3-column TSV fact file, interning terms into `dict`. Appends to
/// `out`. A row of another width is Corruption naming its row.
Status LoadTsvFacts(const std::string& path, Dictionary* dict,
                    std::vector<Triple>* out);

/// Saves triples as 3-column TSV.
Status SaveTsvFacts(const std::string& path, const Dictionary& dict,
                    const std::vector<Triple>& triples);

}  // namespace rdf
}  // namespace midas

#endif  // MIDAS_RDF_NTRIPLES_H_

#ifndef MIDAS_RDF_NTRIPLES_H_
#define MIDAS_RDF_NTRIPLES_H_

#include <string>
#include <string_view>
#include <vector>

#include "midas/rdf/dictionary.h"
#include "midas/rdf/triple.h"
#include "midas/util/status.h"

namespace midas {
namespace rdf {

/// Parsers/serializers for the two fact interchange formats the repository
/// uses:
///
///  * A pragmatic N-Triples subset: `<s> <p> <o> .` or `<s> <p> "literal" .`
///    per line, `#` comments. IRIs keep their angle brackets stripped;
///    literals keep their quotes stripped. No datatype/lang tags, no blank
///    nodes (extraction dumps never produce them).
///  * Plain 3-column TSV, subject / predicate / object per row (see
///    midas/util/tsv.h for escaping, comments and blank lines) — the format
///    automated extraction pipelines typically emit, and the KB format of
///    `midas generate --kb` and `midas discover --kb`.

/// Parses one N-Triples line into raw term strings. Returns
/// InvalidArgument on malformed lines. `out` receives {s, p, o}.
Status ParseNTriplesLine(std::string_view line,
                         std::vector<std::string>* out);

/// Serializes one triple as an N-Triples line (object rendered as an IRI if
/// it looks like one — contains "://" — otherwise as a quoted literal).
std::string FormatNTriplesLine(const std::string& subject,
                               const std::string& predicate,
                               const std::string& object);

/// Loads an N-Triples file, interning terms into `dict`. Appends to `out`.
Status LoadNTriplesFile(const std::string& path, Dictionary* dict,
                        std::vector<Triple>* out);

/// Saves triples as N-Triples.
Status SaveNTriplesFile(const std::string& path, const Dictionary& dict,
                        const std::vector<Triple>& triples);

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

#include "midas/rdf/ntriples.h"

#include "midas/util/tsv.h"

namespace midas {
namespace rdf {

Status LoadTsvFacts(const std::string& path, Dictionary* dict,
                    std::vector<Triple>* out) {
  return TsvReadFile(
      path, [&](size_t row, const std::vector<std::string>& fields) {
        if (fields.size() != 3) {
          return Status::Corruption(path + " row " + std::to_string(row) +
                                    ": expected 3 fields, got " +
                                    std::to_string(fields.size()));
        }
        out->emplace_back(dict->Intern(fields[0]), dict->Intern(fields[1]),
                          dict->Intern(fields[2]));
        return Status::OK();
      });
}

Status SaveTsvFacts(const std::string& path, const Dictionary& dict,
                    const std::vector<Triple>& triples) {
  std::string contents;
  for (const Triple& t : triples) {
    TsvAppendRow(
        {dict.Term(t.subject), dict.Term(t.predicate), dict.Term(t.object)},
        &contents);
  }
  return TsvWriteFile(path, contents);
}

}  // namespace rdf
}  // namespace midas

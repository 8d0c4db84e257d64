#include "midas/extract/columnar_io.h"

#include <cstdint>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "midas/rdf/triple.h"
#include "midas/store/columnar.h"
#include "midas/util/status.h"
#include "midas/web/url.h"

namespace midas {
namespace extract {

bool IsColumnarDump(const std::string& path) {
  return store::SniffColumnarMagic(path);
}

Status SaveColumnarDump(const std::string& path, const ExtractionDump& dump) {
  // URL dictionary in first-appearance order; the triple terms reuse the
  // dump's dictionary ids verbatim (the full dictionary is written, so a
  // reload onto a fresh dictionary reproduces every id exactly).
  std::unordered_map<std::string_view, uint32_t> url_code;
  std::vector<std::string_view> urls;
  store::ColumnarWriter writer(path);
  for (const ExtractedFact& fact : dump.facts) {
    auto [it, inserted] =
        url_code.try_emplace(fact.url, static_cast<uint32_t>(urls.size()));
    if (inserted) urls.push_back(fact.url);
    writer.AddRecord(it->second, fact.triple.subject, fact.triple.predicate,
                     fact.triple.object, fact.confidence);
  }
  const rdf::Dictionary& dict = *dump.dict;
  return writer.Finish(
      dict.size(),
      [&dict](size_t i) {
        return std::string_view(dict.Term(static_cast<rdf::TermId>(i)));
      },
      urls.size(), [&urls](size_t i) { return urls[i]; });
}

namespace {

/// Loads the file's term dictionary into `dict` and returns code -> TermId,
/// or an empty vector when the mapping is the identity. A fresh dictionary
/// adopts the terms verbatim (AdoptUnchecked — no hashing; the file stores
/// each term exactly once), which is most of what makes the columnar load
/// an order of magnitude faster than a TSV parse. A pre-populated
/// dictionary (shared with a KB) falls back to interning every term.
std::vector<rdf::TermId> LoadTerms(const store::ColumnarReader& reader,
                                   rdf::Dictionary* dict) {
  if (dict->size() == 0) {
    dict->Reserve(reader.num_terms());
    for (uint64_t i = 0; i < reader.num_terms(); ++i) {
      dict->AdoptUnchecked(reader.term(static_cast<uint32_t>(i)));
    }
    return {};
  }
  std::vector<rdf::TermId> remap(reader.num_terms());
  for (uint64_t i = 0; i < reader.num_terms(); ++i) {
    remap[i] = dict->Intern(reader.term(static_cast<uint32_t>(i)));
  }
  return remap;
}

/// Normalized URL strings by code. Columnar files written by this process
/// already hold normalized URLs (normalization is idempotent), but files
/// from elsewhere may not.
std::vector<std::string> NormalizedUrls(const store::ColumnarReader& reader) {
  std::vector<std::string> urls(reader.num_urls());
  for (uint64_t i = 0; i < reader.num_urls(); ++i) {
    urls[i] = web::NormalizeUrl(reader.url(static_cast<uint32_t>(i)));
  }
  return urls;
}

}  // namespace

Status LoadColumnarDump(const std::string& path, ExtractionDump* dump,
                        LoadStats* stats, uint64_t* fingerprint) {
  store::ColumnarReader reader;
  MIDAS_RETURN_IF_ERROR(reader.Open(path));
  if (dump->dict == nullptr) dump->dict = std::make_shared<rdf::Dictionary>();
  const std::vector<rdf::TermId> remap = LoadTerms(reader, dump->dict.get());
  const std::vector<std::string> urls = NormalizedUrls(reader);

  const uint64_t n = reader.num_records();
  const double* conf = reader.confidences();
  const uint32_t* url_codes = reader.url_codes();
  const uint32_t* subjects = reader.subjects();
  const uint32_t* predicates = reader.predicates();
  const uint32_t* objects = reader.objects();
  dump->facts.clear();
  dump->facts.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    rdf::Triple triple(subjects[i], predicates[i], objects[i]);
    if (!remap.empty()) {
      triple = rdf::Triple(remap[subjects[i]], remap[predicates[i]],
                           remap[objects[i]]);
    }
    dump->facts.push_back(ExtractedFact{urls[url_codes[i]], triple, conf[i]});
  }
  if (stats != nullptr) {
    stats->rows_loaded = n;
    stats->rows_quarantined = 0;
  }
  if (fingerprint != nullptr) *fingerprint = reader.content_fingerprint();
  return Status::OK();
}

Status LoadColumnarCorpus(const std::string& path, double threshold,
                          std::shared_ptr<rdf::Dictionary> dict,
                          web::Corpus* corpus, uint64_t* fingerprint) {
  store::ColumnarReader reader;
  MIDAS_RETURN_IF_ERROR(reader.Open(path));
  if (reader.num_records() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(path +
                                   ": more than 2^32-1 records to load");
  }
  *corpus = web::Corpus(std::move(dict));
  const std::vector<rdf::TermId> remap =
      LoadTerms(reader, corpus->mutable_dict());
  BuildCorpusFromColumns(
      DumpColumns{reader.num_records(), reader.url_codes(),
                  reader.confidences(), reader.subjects(),
                  reader.predicates(), reader.objects()},
      NormalizedUrls(reader), remap, threshold, corpus);
  if (fingerprint != nullptr) *fingerprint = reader.content_fingerprint();
  return Status::OK();
}

}  // namespace extract
}  // namespace midas

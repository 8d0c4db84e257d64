#include "midas/extract/dump_io.h"

#include "midas/extract/columnar_io.h"
#include "midas/fault/fault.h"
#include "midas/obs/obs.h"
#include "midas/util/logging.h"
#include "midas/util/string_util.h"
#include "midas/util/tsv.h"
#include "midas/web/url.h"

namespace midas {
namespace extract {

Status LoadDump(const std::string& path, ExtractionDump* dump) {
  return LoadDump(path, LoadOptions{}, dump, nullptr);
}

Status LoadDump(const std::string& path, const LoadOptions& options,
                ExtractionDump* dump, LoadStats* stats) {
  // Format auto-detection: a MIDASCOL1 magic routes to the columnar
  // reader. Strict/permissive does not apply there — the binary format is
  // CRC-verified as a whole, so a damaged file always fails the load.
  if (IsColumnarDump(path)) {
    return LoadColumnarDump(path, dump, stats, /*fingerprint=*/nullptr);
  }
  if (!dump->dict) dump->dict = std::make_shared<rdf::Dictionary>();
  rdf::Dictionary* dict = dump->dict.get();
  [[maybe_unused]] obs::Counter* quarantined_c =
      MIDAS_OBS_COUNTER("extract.rows_quarantined");
  LoadStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = LoadStats();
  const auto reject = [&](Status status) {
    if (options.strict) return status;
    // Permissive: quarantine the row and keep loading. The count (not the
    // row content, which may be arbitrarily mangled) is what surfaces.
    stats->rows_quarantined++;
    MIDAS_OBS_ADD(quarantined_c, 1);
    return Status::OK();
  };
  const Status status = TsvReadFile(
      path, [&](size_t row, const std::vector<std::string>& fields) {
        if (MIDAS_FAULT_SHOULD_CORRUPT(fault::kSiteDumpRecord,
                                       std::to_string(row))) {
          return reject(Status::Corruption(path + " row " +
                                           std::to_string(row) +
                                           ": injected corrupt record"));
        }
        if (fields.size() != 5) {
          return reject(Status::Corruption(path + " row " +
                                           std::to_string(row) +
                                           ": expected 5 fields, got " +
                                           std::to_string(fields.size())));
        }
        double confidence = 0;
        if (!ParseDouble(fields[4], &confidence) || confidence < 0.0 ||
            confidence > 1.0) {
          return reject(Status::Corruption(path + " row " +
                                           std::to_string(row) +
                                           ": bad confidence '" + fields[4] +
                                           "'"));
        }
        ExtractedFact fact;
        fact.url = web::NormalizeUrl(fields[0]);
        fact.triple = rdf::Triple(dict->Intern(fields[1]),
                                  dict->Intern(fields[2]),
                                  dict->Intern(fields[3]));
        fact.confidence = confidence;
        dump->facts.push_back(std::move(fact));
        stats->rows_loaded++;
        return Status::OK();
      });
  if (status.ok() && stats->rows_quarantined > 0) {
    MIDAS_LOG(Warning) << path << ": quarantined " << stats->rows_quarantined
                       << " malformed row(s)";
  }
  return status;
}

Status SaveDump(const std::string& path, const ExtractionDump& dump) {
  std::string contents;
  const rdf::Dictionary& dict = *dump.dict;
  for (const auto& f : dump.facts) {
    TsvAppendRow({f.url, dict.Term(f.triple.subject),
                  dict.Term(f.triple.predicate), dict.Term(f.triple.object),
                  FormatDouble(f.confidence, 4)},
                 &contents);
  }
  return TsvWriteFile(path, contents);
}

}  // namespace extract
}  // namespace midas

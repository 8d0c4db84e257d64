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

uint64_t HashFactKey(uint64_t k0, uint64_t k1) {
  uint64_t h = (k0 ^ (k1 * 0x9E3779B97F4A7C15ull));
  h ^= h >> 33;
  h *= 0xC2B2AE3D27D4EB4Full;
  h ^= h >> 29;
  return h;
}

/// Open-addressing set over 128-bit (source, subject, predicate, object)
/// keys. The per-fact dedup is the hot loop of corpus construction; node-
/// based unordered_set inserts were ~4x the cost of the rest of the
/// columnar load combined. Keys are stored verbatim (no fingerprinting), so
/// membership is exact and the result matches BuildCorpus bit for bit.
class FactDedup {
 public:
  explicit FactDedup(uint64_t expected) {
    size_t cap = 64;
    while (cap < expected * 2) cap <<= 1;
    mask_ = cap - 1;
    keys_.resize(cap * 2);
    used_.assign(cap, 0);
  }

  /// Hints the cache about the slot a future Insert(k0, k1) will probe. The
  /// table is tens of MiB at paper scale and every probe is a random-access
  /// miss; issuing the loads ~16 records ahead overlaps them with the
  /// surrounding work (~1.5x on the whole corpus-construction loop).
  void Prefetch(uint64_t k0, uint64_t k1) const {
    const size_t slot = static_cast<size_t>(HashFactKey(k0, k1)) & mask_;
    __builtin_prefetch(&used_[slot]);
    __builtin_prefetch(&keys_[slot * 2]);
  }

  /// Returns true iff (k0, k1) was not in the set; inserts it.
  bool Insert(uint64_t k0, uint64_t k1) {
    size_t slot = static_cast<size_t>(HashFactKey(k0, k1)) & mask_;
    while (used_[slot]) {
      if (keys_[slot * 2] == k0 && keys_[slot * 2 + 1] == k1) return false;
      slot = (slot + 1) & mask_;
    }
    used_[slot] = 1;
    keys_[slot * 2] = k0;
    keys_[slot * 2 + 1] = k1;
    return true;
  }

 private:
  size_t mask_;
  std::vector<uint64_t> keys_;
  std::vector<uint8_t> used_;
};

/// Generation-stamped open-addressing set reused across source runs. When a
/// file's records are grouped by source (true of every file this repo's
/// writers produce), dedup only ever has to remember one source's facts at
/// a time, so a table of a few KiB that stays resident in cache replaces
/// the tens-of-MiB global FactDedup table and its DRAM-latency probes.
/// Bumping the generation empties the table in O(1) between runs.
class RunDedup {
 public:
  RunDedup() { Resize(size_t{1} << 12); }

  /// Logically empties the table for the next source run.
  void NextRun() {
    if (++gen_ == 0) Resize(cap_);  // Generation wrapped: clear stamps.
    count_ = 0;
  }

  /// Returns true iff (k0, k1) was not inserted during the current run;
  /// inserts it.
  bool Insert(uint64_t k0, uint64_t k1) {
    if ((count_ + 1) * 2 > cap_) Grow();
    size_t slot = static_cast<size_t>(HashFactKey(k0, k1)) & mask_;
    while (gens_[slot] == gen_) {
      if (keys_[slot * 2] == k0 && keys_[slot * 2 + 1] == k1) return false;
      slot = (slot + 1) & mask_;
    }
    gens_[slot] = gen_;
    keys_[slot * 2] = k0;
    keys_[slot * 2 + 1] = k1;
    ++count_;
    return true;
  }

 private:
  void Resize(size_t cap) {
    cap_ = cap;
    mask_ = cap - 1;
    keys_.assign(cap * 2, 0);
    gens_.assign(cap, 0);
    gen_ = 1;
  }

  void Grow() {
    const std::vector<uint64_t> old_keys = std::move(keys_);
    const std::vector<uint32_t> old_gens = std::move(gens_);
    const uint32_t live = gen_;
    Resize(cap_ * 2);
    for (size_t s = 0; s < old_gens.size(); ++s) {
      if (old_gens[s] != live) continue;
      // Keys of one run are distinct, so reinsertion needs no equality
      // probes.
      size_t slot = static_cast<size_t>(
                        HashFactKey(old_keys[s * 2], old_keys[s * 2 + 1])) &
                    mask_;
      while (gens_[slot] == gen_) slot = (slot + 1) & mask_;
      gens_[slot] = gen_;
      keys_[slot * 2] = old_keys[s * 2];
      keys_[slot * 2 + 1] = old_keys[s * 2 + 1];
    }
  }

  size_t cap_ = 0;
  size_t mask_ = 0;
  size_t count_ = 0;
  uint32_t gen_ = 1;
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> gens_;
};

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

namespace {

constexpr size_t kNoSource = std::numeric_limits<size_t>::max();
constexpr uint32_t kNoCanon = std::numeric_limits<uint32_t>::max();

/// Canonical source id per URL code: Corpus keys sources by the exact
/// normalized URL, so distinct codes whose URLs normalize equal must share
/// an id for the contiguity test below.
std::vector<uint32_t> BuildCanonMap(const std::vector<std::string>& urls,
                                    uint32_t* num_canon) {
  *num_canon = 0;
  std::vector<uint32_t> canon(urls.size());
  std::unordered_map<std::string_view, uint32_t> ids;
  ids.reserve(urls.size());
  for (size_t c = 0; c < urls.size(); ++c) {
    auto [it, inserted] = ids.try_emplace(urls[c], *num_canon);
    if (inserted) ++*num_canon;
    canon[c] = it->second;
  }
  return canon;
}

/// One sequential pass decides the dedup strategy: true iff every source's
/// records form a single contiguous run (true of every file this repo's
/// writers produce, and of any TSV conversion that preserved record order),
/// in which case a per-run dedup table replaces the global one.
bool SourceContiguous(const uint32_t* url_codes, uint64_t n,
                      const std::vector<uint32_t>& canon, uint32_t num_canon) {
  std::vector<uint8_t> seen(num_canon, 0);
  uint32_t cur = kNoCanon;
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t c = canon[url_codes[i]];
    if (c == cur) continue;
    if (seen[c]) return false;
    seen[c] = 1;
    cur = c;
  }
  return true;
}

/// The corpus build over a verified reader. Sources are created lazily on
/// their first surviving fact, so source order (and the absence of
/// all-filtered sources) matches what BuildCorpus produces from the same
/// records — discovery output is identical between the two paths.
void LoadCorpusSerial(const store::ColumnarReader& reader,
                      const std::vector<rdf::TermId>& remap,
                      const std::vector<std::string>& urls,
                      const std::vector<uint32_t>& canon,
                      bool source_contiguous, double threshold,
                      web::Corpus* corpus) {
  std::vector<size_t> source_of(reader.num_urls(), kNoSource);
  const uint64_t n = reader.num_records();
  const double* conf = reader.confidences();
  const uint32_t* url_codes = reader.url_codes();
  const uint32_t* subjects = reader.subjects();
  const uint32_t* predicates = reader.predicates();
  const uint32_t* objects = reader.objects();
  const auto append = [&](uint64_t i, size_t source) {
    rdf::Triple triple(subjects[i], predicates[i], objects[i]);
    if (!remap.empty()) {
      triple = rdf::Triple(remap[subjects[i]], remap[predicates[i]],
                           remap[objects[i]]);
    }
    corpus->AppendFactToSourceUnchecked(source, triple);
  };
  if (source_contiguous) {
    // All of one source's facts arrive back to back, so global per-source
    // (url, triple) dedup — BuildCorpus's semantics — degenerates to
    // (triple) dedup within the current run.
    RunDedup dedup;
    uint32_t cur = kNoCanon;
    for (uint64_t i = 0; i < n; ++i) {
      if (!(conf[i] > threshold)) continue;
      const uint32_t code = url_codes[i];
      if (canon[code] != cur) {
        cur = canon[code];
        dedup.NextRun();
      }
      if (source_of[code] == kNoSource) {
        source_of[code] = corpus->AddSource(urls[code]);
      }
      if (!dedup.Insert(subjects[i],
                        (static_cast<uint64_t>(predicates[i]) << 32) |
                            objects[i])) {
        continue;
      }
      append(i, source_of[code]);
    }
  } else {
    // Interleaved sources: dedup on raw codes, keyed by the resolved source
    // index so two URL codes normalizing to the same source still dedup
    // against each other — exactly BuildCorpus's per-source (url, triple)
    // semantics, since the code->TermId remap is injective. The unchecked
    // append is then safe.
    uint64_t surviving = 0;
    for (uint64_t i = 0; i < n; ++i) {
      if (conf[i] > threshold) ++surviving;
    }
    FactDedup dedup(surviving);
    // Probe-ahead distance for the dedup table (see FactDedup::Prefetch).
    constexpr uint64_t kPrefetchAhead = 16;
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t j = i + kPrefetchAhead;
      if (j < n && conf[j] > threshold) {
        // The future record's source index is only known once its source
        // exists; this still covers most iterations on mostly-grouped
        // files.
        const size_t psrc = source_of[url_codes[j]];
        if (psrc != kNoSource) {
          dedup.Prefetch(
              (static_cast<uint64_t>(psrc) << 32) | subjects[j],
              (static_cast<uint64_t>(predicates[j]) << 32) | objects[j]);
        }
      }
      if (!(conf[i] > threshold)) continue;
      const uint32_t code = url_codes[i];
      if (source_of[code] == kNoSource) {
        source_of[code] = corpus->AddSource(urls[code]);
      }
      const uint64_t source = source_of[code];
      if (!dedup.Insert((source << 32) | subjects[i],
                        (static_cast<uint64_t>(predicates[i]) << 32) |
                            objects[i])) {
        continue;
      }
      append(i, source);
    }
  }
}

}  // namespace

Status LoadColumnarCorpus(const std::string& path, double threshold,
                          std::shared_ptr<rdf::Dictionary> dict,
                          web::Corpus* corpus, uint64_t* fingerprint) {
  store::ColumnarReader reader;
  MIDAS_RETURN_IF_ERROR(reader.Open(path));
  *corpus = web::Corpus(std::move(dict));
  const std::vector<rdf::TermId> remap =
      LoadTerms(reader, corpus->mutable_dict());
  const std::vector<std::string> urls = NormalizedUrls(reader);
  uint32_t num_canon = 0;
  const std::vector<uint32_t> canon = BuildCanonMap(urls, &num_canon);
  const bool contiguous = SourceContiguous(
      reader.url_codes(), reader.num_records(), canon, num_canon);
  LoadCorpusSerial(reader, remap, urls, canon, contiguous, threshold, corpus);
  if (fingerprint != nullptr) *fingerprint = reader.content_fingerprint();
  return Status::OK();
}

}  // namespace extract
}  // namespace midas

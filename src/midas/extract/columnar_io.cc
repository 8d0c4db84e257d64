#include "midas/extract/columnar_io.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "midas/rdf/triple.h"
#include "midas/store/columnar.h"
#include "midas/util/status.h"
#include "midas/util/thread_pool.h"
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
/// an id for the run detection below.
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

/// One maximal run of records sharing a canonical source.
struct CanonRun {
  uint32_t canon = 0;
  uint32_t first_code = 0;  // url code of the run's first record
  uint64_t first = 0;
  uint64_t last = 0;
};

/// One sequential pass decides the dedup strategy: when every source's
/// records form a single contiguous run (true of every file this repo's
/// writers produce, and of any TSV conversion that preserved record order),
/// a per-run dedup table replaces the global one and runs can decode in
/// parallel. Returns true and the run list (which partitions
/// [0, num_records)) iff contiguous; also false on any out-of-range url
/// code, leaving the error report to the serial fallback's full check.
bool CollectCanonRuns(const uint32_t* url_codes, uint64_t n,
                      const std::vector<uint32_t>& canon, uint32_t num_canon,
                      std::vector<CanonRun>* runs) {
  runs->clear();
  std::vector<uint8_t> seen(num_canon, 0);
  uint32_t cur = kNoCanon;
  for (uint64_t i = 0; i < n; ++i) {
    if (url_codes[i] >= canon.size()) {
      runs->clear();
      return false;
    }
    const uint32_t c = canon[url_codes[i]];
    if (c == cur) {
      runs->back().last = i + 1;
      continue;
    }
    if (seen[c]) {
      runs->clear();
      return false;
    }
    seen[c] = 1;
    cur = c;
    runs->push_back(CanonRun{c, url_codes[i], i, i + 1});
  }
  return true;
}

/// The serial corpus build over a verified reader — the reference the
/// parallel and subset paths are pinned bit-identical to. Sources are
/// created lazily on their first surviving fact, so source order (and the
/// absence of all-filtered sources) matches what BuildCorpus produces from
/// the same records — discovery output is identical between the two paths.
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

/// Parallel corpus build over canon runs: each chunk of consecutive runs
/// decodes + dedups independently (per-run dedup is embarrassingly
/// parallel once chunks split only at run boundaries), then a serial merge
/// walks chunks in record order — source creation order and per-source
/// fact order are exactly the serial path's.
Status LoadCorpusParallel(store::ColumnarReader* reader,
                          const std::vector<rdf::TermId>& remap,
                          const std::vector<std::string>& urls,
                          const std::vector<CanonRun>& runs,
                          uint32_t num_canon, double threshold,
                          size_t num_threads, web::Corpus* corpus) {
  const double* conf = reader->confidences();
  const uint32_t* subjects = reader->subjects();
  const uint32_t* predicates = reader->predicates();
  const uint32_t* objects = reader->objects();
  const uint64_t n = reader->num_records();

  ThreadPool pool(num_threads);

  // Settle lazily-deferred section CRCs in parallel (memoized; no-op after
  // an eager open).
  Status section_status[store::kColumnarNumSections];
  pool.ParallelFor(store::kColumnarNumSections, [&](size_t s) {
    section_status[s] = reader->VerifySection(s);
  });
  for (const Status& status : section_status) {
    MIDAS_RETURN_IF_ERROR(status);
  }

  // A chunk is a span of consecutive runs totalling ~1/target of the
  // records; more chunks than threads smooths imbalance from skewed source
  // sizes.
  struct Chunk {
    size_t run_begin = 0;
    size_t run_end = 0;
  };
  std::vector<Chunk> chunks;
  const uint64_t target_chunks = num_threads * 4;
  const uint64_t per_chunk =
      std::max<uint64_t>(1, (n + target_chunks - 1) / target_chunks);
  for (size_t r = 0; r < runs.size();) {
    Chunk chunk;
    chunk.run_begin = r;
    uint64_t records = 0;
    while (r < runs.size() && records < per_chunk) {
      records += runs[r].last - runs[r].first;
      ++r;
    }
    chunk.run_end = r;
    chunks.push_back(chunk);
  }

  struct ChunkOut {
    std::vector<rdf::Triple> facts;  // survivors, in record order
    // (run index, survivor count) for each run with survivors, in order.
    std::vector<std::pair<size_t, size_t>> run_counts;
    Status status;
  };
  std::vector<ChunkOut> outs(chunks.size());
  pool.ParallelFor(chunks.size(), [&](size_t ci) {
    const Chunk& chunk = chunks[ci];
    ChunkOut& out = outs[ci];
    // Bounds-check this chunk's codes (the lazy-verify substitute for the
    // eager open's full scan; memoized eager opens make it a re-scan only
    // for lazy readers).
    out.status = reader->VerifyRecordCodes(runs[chunk.run_begin].first,
                                           runs[chunk.run_end - 1].last);
    if (!out.status.ok()) return;
    RunDedup dedup;
    for (size_t ri = chunk.run_begin; ri < chunk.run_end; ++ri) {
      dedup.NextRun();
      size_t survivors = 0;
      for (uint64_t i = runs[ri].first; i < runs[ri].last; ++i) {
        if (!(conf[i] > threshold)) continue;
        if (!dedup.Insert(subjects[i],
                          (static_cast<uint64_t>(predicates[i]) << 32) |
                              objects[i])) {
          continue;
        }
        if (remap.empty()) {
          out.facts.emplace_back(subjects[i], predicates[i], objects[i]);
        } else {
          out.facts.emplace_back(remap[subjects[i]], remap[predicates[i]],
                                 remap[objects[i]]);
        }
        ++survivors;
      }
      if (survivors > 0) out.run_counts.emplace_back(ri, survivors);
    }
  });

  for (const ChunkOut& out : outs) {
    MIDAS_RETURN_IF_ERROR(out.status);
  }
  // Deterministic merge: chunks and runs ascending in record order, so a
  // source is created at its first run with survivors — the same position
  // the serial path creates it at.
  std::vector<size_t> canon_source(num_canon, kNoSource);
  for (const ChunkOut& out : outs) {
    size_t off = 0;
    for (const auto& [ri, count] : out.run_counts) {
      size_t& source = canon_source[runs[ri].canon];
      if (source == kNoSource) {
        source = corpus->AddSource(urls[runs[ri].first_code]);
      }
      for (size_t k = 0; k < count; ++k) {
        corpus->AppendFactToSourceUnchecked(source, out.facts[off + k]);
      }
      off += count;
    }
  }
  return Status::OK();
}

}  // namespace

Status LoadColumnarCorpusFromReader(store::ColumnarReader* reader,
                                    const ColumnarLoadOptions& options,
                                    web::Corpus* corpus) {
  if (!reader->is_open()) {
    return Status::InvalidArgument("columnar reader is not open");
  }
  *corpus = web::Corpus(options.dict);
  // The dictionary payloads and the url-code column are read below; settle
  // their CRCs first (memoized no-ops after an eager open).
  MIDAS_RETURN_IF_ERROR(reader->VerifySection(store::kSectionTerms));
  MIDAS_RETURN_IF_ERROR(reader->VerifySection(store::kSectionUrls));
  MIDAS_RETURN_IF_ERROR(reader->VerifySection(store::kSectionUrlCode));
  const std::vector<rdf::TermId> remap =
      LoadTerms(*reader, corpus->mutable_dict());
  const std::vector<std::string> urls = NormalizedUrls(*reader);
  uint32_t num_canon = 0;
  const std::vector<uint32_t> canon = BuildCanonMap(urls, &num_canon);
  std::vector<CanonRun> runs;
  const bool contiguous = CollectCanonRuns(
      reader->url_codes(), reader->num_records(), canon, num_canon, &runs);
  if (contiguous && options.num_threads > 1 && !runs.empty()) {
    MIDAS_RETURN_IF_ERROR(LoadCorpusParallel(reader, remap, urls, runs,
                                             num_canon, options.threshold,
                                             options.num_threads, corpus));
  } else {
    MIDAS_RETURN_IF_ERROR(reader->VerifyAllSections());
    MIDAS_RETURN_IF_ERROR(reader->VerifyAllRecordCodes());
    LoadCorpusSerial(*reader, remap, urls, canon, contiguous,
                     options.threshold, corpus);
  }
  return Status::OK();
}

Status LoadColumnarCorpus(const std::string& path, double threshold,
                          std::shared_ptr<rdf::Dictionary> dict,
                          web::Corpus* corpus, uint64_t* fingerprint) {
  store::ColumnarReader reader;
  MIDAS_RETURN_IF_ERROR(reader.Open(path));
  ColumnarLoadOptions options;
  options.threshold = threshold;
  options.dict = std::move(dict);
  MIDAS_RETURN_IF_ERROR(
      LoadColumnarCorpusFromReader(&reader, options, corpus));
  if (fingerprint != nullptr) *fingerprint = reader.content_fingerprint();
  return Status::OK();
}

Status LoadColumnarCorpusSubset(store::ColumnarReader* reader,
                                const std::vector<uint32_t>& url_codes,
                                const ColumnarLoadOptions& options,
                                web::Corpus* corpus) {
  if (!reader->is_open()) {
    return Status::InvalidArgument("columnar reader is not open");
  }
  if (!reader->has_source_index()) {
    return Status::InvalidArgument(
        "columnar file has no source-range index (midas convert --reindex "
        "adds one)");
  }
  *corpus = web::Corpus(options.dict);
  // No dictionary-section checksums here: subset cost must scale with the
  // subset, not the file. The open already validated both offset tables
  // structurally (monotone, in-bounds), so every term()/url() view read
  // below is well-formed even on a lazily-verified reader; whole-section
  // CRCs stay with the full loads and `midas convert`.
  // Terms are interned on first use only: a subset touching 1% of the
  // records must not pay a full-dictionary adoption (the dominant fixed
  // cost at paper scale). Seeded with the file's full dictionary the ids
  // come out identical to a full load's; a fresh dictionary assigns them
  // in first-use order instead (same term strings either way).
  rdf::Dictionary* dict = corpus->mutable_dict();
  std::vector<rdf::TermId> lazy_ids(reader->num_terms(), rdf::kInvalidTermId);
  const auto resolve = [&](uint32_t term_code) {
    rdf::TermId& id = lazy_ids[term_code];
    if (id == rdf::kInvalidTermId) id = dict->Intern(reader->term(term_code));
    return id;
  };

  std::vector<uint32_t> codes = url_codes;
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  if (!codes.empty() && codes.back() >= reader->num_urls()) {
    return Status::InvalidArgument("url code out of range");
  }
  std::vector<const store::ColumnarSourceRun*> runs;
  runs.reserve(codes.size());
  uint64_t selected = 0;
  for (uint32_t code : codes) {
    const store::ColumnarSourceRun* run = reader->FindSourceRun(code);
    if (run == nullptr) continue;  // valid code, no records
    runs.push_back(run);
    selected += run->last - run->first;
  }

  const double* conf = reader->confidences();
  const uint32_t* rec_codes = reader->url_codes();
  const uint32_t* subjects = reader->subjects();
  const uint32_t* predicates = reader->predicates();
  const uint32_t* objects = reader->objects();
  // Runs sorted by code are sorted by position too (index invariant), so
  // records are visited in file order: source creation order and dedup
  // semantics match a full load filtered to these codes. Dedup is keyed by
  // the resolved source index, which covers canon-merged codes exactly like
  // the full load's global table.
  std::unordered_map<uint32_t, size_t> source_of;
  FactDedup dedup(selected);
  for (const store::ColumnarSourceRun* run : runs) {
    MIDAS_RETURN_IF_ERROR(reader->VerifyRecordCodes(run->first, run->last));
    for (uint64_t i = run->first; i < run->last; ++i) {
      if (!(conf[i] > options.threshold)) continue;
      const uint32_t code = rec_codes[i];
      auto [it, inserted] = source_of.try_emplace(code, 0);
      if (inserted) {
        it->second = corpus->AddSource(web::NormalizeUrl(reader->url(code)));
      }
      const uint64_t source = it->second;
      if (!dedup.Insert((source << 32) | subjects[i],
                        (static_cast<uint64_t>(predicates[i]) << 32) |
                            objects[i])) {
        continue;
      }
      corpus->AppendFactToSourceUnchecked(
          static_cast<size_t>(source),
          rdf::Triple(resolve(subjects[i]), resolve(predicates[i]),
                      resolve(objects[i])));
    }
  }
  return Status::OK();
}

}  // namespace extract
}  // namespace midas

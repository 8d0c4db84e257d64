#include "midas/extract/extraction.h"

#include <limits>
#include <set>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "midas/web/url.h"

namespace midas {
namespace extract {

namespace {

uint64_t HashFactKey(uint64_t k0, uint64_t k1) {
  uint64_t h = (k0 ^ (k1 * 0x9E3779B97F4A7C15ull));
  h ^= h >> 33;
  h *= 0xC2B2AE3D27D4EB4Full;
  h ^= h >> 29;
  return h;
}

/// Generation-stamped open-addressing set of 128-bit triple keys, reused
/// across sources. The build dedups one source at a time, so a table of a
/// few KiB that stays resident in cache does the work of a per-source
/// node-based set (several times the cost of the rest of the build).
/// Bumping the generation empties the table in O(1) between sources. Keys
/// are stored verbatim, so membership is exact.
class RunDedup {
 public:
  RunDedup() { Resize(size_t{1} << 12); }

  /// Logically empties the table for the next source.
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

constexpr uint32_t kNoSource = std::numeric_limits<uint32_t>::max();

}  // namespace

void BuildCorpusFromColumns(const DumpColumns& records,
                            const std::vector<std::string>& urls,
                            const std::vector<rdf::TermId>& remap,
                            double threshold, web::Corpus* corpus) {
  const uint64_t n = records.size;
  const auto survives = [&](uint64_t i) {
    return records.confidences[i] > threshold;
  };

  // Pass 1: create each source on its first surviving record (AddSource
  // gives codes with equal URLs one source) and count its records.
  std::vector<uint32_t> source_of_code(urls.size(), kNoSource);
  std::vector<uint32_t> start;  // per source: record count, then offset
  for (uint64_t i = 0; i < n; ++i) {
    if (!survives(i)) continue;
    const uint32_t code = records.url_codes[i];
    if (source_of_code[code] == kNoSource) {
      source_of_code[code] =
          static_cast<uint32_t>(corpus->AddSource(urls[code]));
      if (source_of_code[code] == start.size()) start.push_back(0);
    }
    ++start[source_of_code[code]];
  }

  // Pass 2: stable counting sort of the surviving records by source.
  uint32_t total = 0;
  for (uint32_t& slot : start) {
    const uint32_t count = slot;
    slot = total;
    total += count;
  }
  start.push_back(total);
  std::vector<uint32_t> order(total);
  {
    std::vector<uint32_t> next(start.begin(), start.end() - 1);
    for (uint64_t i = 0; i < n; ++i) {
      if (!survives(i)) continue;
      order[next[source_of_code[records.url_codes[i]]]++] =
          static_cast<uint32_t>(i);
    }
  }

  // Pass 3: per source, dedup the triples on their columns' codes (the
  // remap is injective, so code equality is TermId equality) and append.
  RunDedup dedup;
  for (size_t source = 0; source + 1 < start.size(); ++source) {
    corpus->mutable_sources()[source].facts.reserve(start[source + 1] -
                                                    start[source]);
    dedup.NextRun();
    for (uint32_t k = start[source]; k < start[source + 1]; ++k) {
      const uint32_t i = order[k];
      const uint32_t s = records.subjects[i];
      const uint32_t p = records.predicates[i];
      const uint32_t o = records.objects[i];
      if (!dedup.Insert(s, (static_cast<uint64_t>(p) << 32) | o)) continue;
      corpus->AppendFactToSourceUnchecked(
          source, remap.empty() ? rdf::Triple(s, p, o)
                                : rdf::Triple(remap[s], remap[p], remap[o]));
    }
  }
}

web::Corpus BuildCorpus(const ExtractionDump& dump, double threshold) {
  // Code the URLs in first-appearance order and split the records into
  // the columns BuildCorpusFromColumns reads.
  const size_t n = dump.facts.size();
  std::unordered_map<std::string_view, uint32_t> code_of_url;
  std::vector<std::string> urls;
  std::vector<uint32_t> url_codes(n), subjects(n), predicates(n), objects(n);
  std::vector<double> confidences(n);
  for (size_t i = 0; i < n; ++i) {
    const ExtractedFact& fact = dump.facts[i];
    const auto [it, inserted] = code_of_url.try_emplace(
        fact.url, static_cast<uint32_t>(urls.size()));
    if (inserted) urls.push_back(fact.url);
    url_codes[i] = it->second;
    confidences[i] = fact.confidence;
    subjects[i] = fact.triple.subject;
    predicates[i] = fact.triple.predicate;
    objects[i] = fact.triple.object;
  }
  web::Corpus corpus(dump.dict);
  BuildCorpusFromColumns(
      DumpColumns{n, url_codes.data(), confidences.data(), subjects.data(),
                  predicates.data(), objects.data()},
      urls, /*remap=*/{}, threshold, &corpus);
  return corpus;
}

DeltaStats ApplyFactDelta(const std::vector<RawExtractedFact>& delta,
                          double threshold, web::Corpus* corpus) {
  DeltaStats stats;
  std::set<std::string> touched;
  rdf::Dictionary* dict = corpus->mutable_dict();
  for (const auto& f : delta) {
    if (!(f.confidence > threshold)) {
      stats.below_threshold++;
      continue;
    }
    std::string url = web::NormalizeUrl(f.url);
    const size_t idx = corpus->AddSource(url);
    const rdf::Triple triple(dict->Intern(f.subject),
                             dict->Intern(f.predicate),
                             dict->Intern(f.object));
    if (corpus->AddFactToSource(idx, triple)) {
      stats.added++;
      touched.insert(std::move(url));
    } else {
      stats.duplicates++;
    }
  }
  stats.touched_urls.assign(touched.begin(), touched.end());
  return stats;
}

}  // namespace extract
}  // namespace midas

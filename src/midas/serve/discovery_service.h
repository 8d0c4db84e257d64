#ifndef MIDAS_SERVE_DISCOVERY_SERVICE_H_
#define MIDAS_SERVE_DISCOVERY_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "midas/baselines/methods.h"
#include "midas/core/framework.h"
#include "midas/extract/extraction.h"
#include "midas/fault/cancel.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/serve/http_server.h"
#include "midas/serve/result_cache.h"
#include "midas/web/web_source.h"

namespace midas {
namespace serve {

/// Options for DiscoveryService.
struct DiscoveryServiceOptions {
  /// Confidence filter applied to ingested fact deltas (matches the
  /// threshold the corpus was loaded with).
  double confidence_threshold = 0.7;
  /// Framework threads per /discover run; 0 = hardware concurrency.
  size_t num_threads = 0;
  /// Default per-request budget in ms (0 = unbounded); a request body's
  /// "deadline_ms" can only tighten it further.
  uint64_t default_deadline_ms = 0;
  /// Result-cache entries; 0 disables the cache.
  size_t cache_capacity = 64;
};

/// The daemon's brain: owns a loaded corpus + KB and answers the four
/// endpoints of the `midas serve` API (see docs/SERVE.md):
///
///   POST /discover  options JSON -> slices JSON. Served from the LRU result
///                   cache when (corpus version, canonical options) was
///                   seen before. Otherwise it folds per-domain results:
///                   two web domains never meet in the framework's rounds,
///                   so a run's result is the union of its per-domain
///                   results. Domains whose last complete run under the
///                   same detector is still current are reused as stored;
///                   one MidasFramework::Run covers the rest (the live
///                   corpus when every domain needs it, else a
///                   request-local corpus of those domains' sources).
///   POST /ingest    fact-delta JSON -> stats JSON. Applies new extraction
///                   records in place, bumps the corpus version and drops
///                   the stored results of the domains the delta touched.
///                   Inside a re-run domain the DetectionMemo still saves
///                   every shard whose inputs are unchanged, so the next
///                   /discover re-detects exactly the touched sources and
///                   their URL ancestors.
///   GET  /healthz   liveness + corpus shape.
///   GET  /metricz   the obs registry as JSON.
///
/// A "domain" is the set of sources whose facts the framework's hierarchy
/// rounds carry to one depth-0 shard (web::UrlAncestry's root). Where
/// malformed URLs make two such sets share a shard URL, they are one
/// domain, so every shard URL names exactly one domain.
///
/// Concurrency: /discover holds the state lock shared (any number run
/// concurrently; the DetectionMemo, the ResultCache and the stored domain
/// results lock themselves), /ingest holds it exclusive, so a delta is
/// never applied mid-run.
class DiscoveryService {
 public:
  /// Takes ownership of the corpus and KB (they must share a dictionary).
  /// Rebuilds the corpus dedup index, so bulk-loaded corpora ingest
  /// correctly.
  DiscoveryService(web::Corpus corpus, rdf::KnowledgeBase kb,
                   DiscoveryServiceOptions options = {});

  /// The HttpServer handler. Thread-safe.
  HttpResponse Handle(const HttpRequest& request,
                      const fault::CancelToken& cancel);

  /// Monotonic corpus state id; bumped whenever an ingest adds facts.
  uint64_t corpus_version() const;

  const ResultCache& cache() const { return cache_; }
  const core::DetectionMemo& memo() const { return memo_; }

 private:
  /// The last complete run's outputs over one domain under one detector.
  /// Stored only when every shard of the domain ended ok/no_slices.
  struct DomainResult {
    uint64_t detector_context = 0;
    /// Surviving slices, in no particular order.
    std::vector<core::DiscoveredSlice> slices;
    size_t shards = 0;
    /// Sum of the shards' detector attempts.
    size_t detector_calls = 0;
    size_t rounds = 0;
  };

  HttpResponse HandleDiscover(const HttpRequest& request,
                              const fault::CancelToken& cancel);
  HttpResponse HandleIngest(const HttpRequest& request);
  HttpResponse HandleHealthz() const;

  /// Splits `fresh`, a framework run over the `stale` domains, by domain.
  /// Unless the run was cut (`fresh->partial`), a domain whose every shard
  /// ended ok/no_slices gets its slices and counters stored as its result
  /// (in `results` and results_); any other loses its stored result, and
  /// its slices go to `unstored`.
  void StoreDomainResults(
      const std::vector<uint32_t>& stale, uint64_t detector_context,
      bool hierarchy_rounds, core::FrameworkResult* fresh,
      std::vector<std::shared_ptr<const DomainResult>>* results,
      std::vector<core::DiscoveredSlice>* unstored);

  /// Assigns corpus sources [first, NumSources()) to domains, merging
  /// domains that come to share a shard URL. A domain that gains a source
  /// loses its stored result. Requires the state lock exclusive and
  /// results_mu_ (or the constructor).
  void AddSourcesToDomains(size_t first);

  const DiscoveryServiceOptions options_;

  mutable std::shared_mutex state_mu_;
  web::Corpus corpus_;
  rdf::KnowledgeBase kb_;
  /// HashKbContent(kb_), computed once: the KB never changes.
  baselines::KbContentHash kb_hash_;
  uint64_t corpus_version_ = 1;
  /// Source indices per domain id (empty for a domain merged into another),
  /// and the domain id of every shard URL; both change only under the
  /// exclusive state lock.
  std::vector<std::vector<uint32_t>> domain_sources_;
  std::unordered_map<std::string, uint32_t> domain_of_url_;

  /// Stored results, indexed by domain id (null = none). Snapshotted and
  /// replaced under results_mu_; a snapshot keeps its results alive.
  std::mutex results_mu_;
  std::vector<std::shared_ptr<const DomainResult>> results_;

  core::DetectionMemo memo_;
  ResultCache cache_;
};

}  // namespace serve
}  // namespace midas

#endif  // MIDAS_SERVE_DISCOVERY_SERVICE_H_

#include "midas/serve/discovery_service.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "midas/baselines/methods.h"
#include "midas/core/midas.h"
#include "midas/obs/export.h"
#include "midas/obs/obs.h"
#include "midas/util/string_util.h"
#include "midas/util/timer.h"
#include "midas/web/url.h"

namespace midas {
namespace serve {

namespace {

/// Everything a /discover body can configure. Defaults match the
/// `midas discover` CLI flags.
struct DiscoverOptions {
  std::string method = "midas";
  core::CostModel cost{10.0, 0.001, 0.01, 0.1};
  int64_t top_k = 20;  // 0 = all slices
  uint64_t deadline_ms = 0;
  bool use_cache = true;
};

Status ParseDiscoverOptions(const std::string& body, DiscoverOptions* out) {
  if (Trim(body).empty()) return Status::OK();  // all defaults
  JsonValue parsed;
  MIDAS_RETURN_IF_ERROR(JsonValue::Parse(body, &parsed));
  if (!parsed.IsObject()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  if (const JsonValue* v = parsed.Get("method")) {
    out->method = v->AsString("midas");
  }
  if (baselines::FindMethod(out->method) == nullptr) {
    return Status::InvalidArgument("unknown method: " + out->method);
  }
  if (const JsonValue* v = parsed.Get("f_p")) out->cost.f_p = v->AsDouble();
  if (const JsonValue* v = parsed.Get("f_c")) out->cost.f_c = v->AsDouble();
  if (const JsonValue* v = parsed.Get("f_d")) out->cost.f_d = v->AsDouble();
  if (const JsonValue* v = parsed.Get("f_v")) out->cost.f_v = v->AsDouble();
  if (const JsonValue* v = parsed.Get("top_k")) out->top_k = v->AsInt(20);
  if (out->top_k < 0) {
    return Status::InvalidArgument("top_k must be >= 0");
  }
  if (const JsonValue* v = parsed.Get("deadline_ms")) {
    const int64_t ms = v->AsInt(0);
    if (ms < 0) return Status::InvalidArgument("deadline_ms must be >= 0");
    out->deadline_ms = static_cast<uint64_t>(ms);
  }
  if (const JsonValue* v = parsed.Get("cache")) {
    out->use_cache = v->AsBool(true);
  }
  return Status::OK();
}

/// The cache-key fragment for one option set. Deliberately excludes
/// deadline_ms: a *complete* result is identical under any deadline (and
/// partial results are never cached), so queries differing only in budget
/// share an entry.
std::string CanonicalOptions(const DiscoverOptions& options) {
  return StringPrintf("method=%s;f_p=%.17g;f_c=%.17g;f_d=%.17g;f_v=%.17g;"
                      "top_k=%lld",
                      options.method.c_str(), options.cost.f_p,
                      options.cost.f_c, options.cost.f_d, options.cost.f_v,
                      static_cast<long long>(options.top_k));
}

/// Strips the query string: "/discover?x=1" routes as "/discover".
std::string_view PathOf(const std::string& target) {
  const size_t q = target.find('?');
  return std::string_view(target).substr(0, q);
}

}  // namespace

DiscoveryService::DiscoveryService(web::Corpus corpus, rdf::KnowledgeBase kb,
                                   DiscoveryServiceOptions options)
    : options_(options),
      corpus_(std::move(corpus)),
      kb_(std::move(kb)),
      kb_hash_(baselines::HashKbContent(kb_)),
      cache_(options.cache_capacity) {
  // Bulk (columnar) loads skip the dedup sets; ingest needs them.
  corpus_.RebuildDedupIndex();
  AddSourcesToDomains(0);
}

void DiscoveryService::AddSourcesToDomains(size_t first) {
  constexpr uint32_t kNoDomain = UINT32_MAX;
  const auto& sources = corpus_.sources();
  for (size_t si = first; si < sources.size(); ++si) {
    std::vector<std::string> ancestry = web::UrlAncestry(sources[si].url);
    uint32_t domain = kNoDomain;
    for (const std::string& url : ancestry) {
      const auto it = domain_of_url_.find(url);
      if (it == domain_of_url_.end() || it->second == domain) continue;
      if (domain == kNoDomain) {
        domain = it->second;
        continue;
      }
      // Two domains share this shard URL: fold the other one in.
      const uint32_t merged = it->second;
      for (auto& [shard_url, id] : domain_of_url_) {
        if (id == merged) id = domain;
      }
      std::vector<uint32_t>& into = domain_sources_[domain];
      into.insert(into.end(), domain_sources_[merged].begin(),
                  domain_sources_[merged].end());
      domain_sources_[merged].clear();
      results_[merged].reset();
    }
    if (domain == kNoDomain) {
      domain = static_cast<uint32_t>(domain_sources_.size());
      domain_sources_.emplace_back();
      results_.emplace_back();
    }
    domain_sources_[domain].push_back(static_cast<uint32_t>(si));
    results_[domain].reset();
    for (std::string& url : ancestry) {
      domain_of_url_.try_emplace(std::move(url), domain);
    }
  }
}

uint64_t DiscoveryService::corpus_version() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return corpus_version_;
}

HttpResponse DiscoveryService::Handle(const HttpRequest& request,
                                      const fault::CancelToken& cancel) {
  const std::string_view path = PathOf(request.target);
  if (path == "/discover") {
    if (request.method != "POST") {
      return HttpResponse::Error(405, "POST /discover");
    }
    return HandleDiscover(request, cancel);
  }
  if (path == "/ingest") {
    if (request.method != "POST") {
      return HttpResponse::Error(405, "POST /ingest");
    }
    return HandleIngest(request);
  }
  if (path == "/healthz") {
    if (request.method != "GET") return HttpResponse::Error(405, "GET /healthz");
    return HandleHealthz();
  }
  if (path == "/metricz") {
    if (request.method != "GET") return HttpResponse::Error(405, "GET /metricz");
    return HttpResponse::Json(200, obs::MetricsToJson());
  }
  return HttpResponse::Error(404, "no such endpoint");
}

void DiscoveryService::StoreDomainResults(
    const std::vector<uint32_t>& stale, uint64_t detector_context,
    bool hierarchy_rounds, core::FrameworkResult* fresh,
    std::vector<std::shared_ptr<const DomainResult>>* results,
    std::vector<core::DiscoveredSlice>* unstored) {
  struct Split {
    DomainResult result;
    bool clean = true;  // every shard ended ok/no_slices
  };
  std::unordered_map<uint32_t, Split> split;
  for (const core::SourceReport& report : fresh->sources) {
    Split& out = split[domain_of_url_.at(report.url)];
    out.result.shards++;
    out.result.detector_calls += report.attempts;
    out.clean = out.clean && (report.status == core::SourceStatus::kOk ||
                              report.status == core::SourceStatus::kNoSlices);
  }
  // A cut run stores nothing. Its cancelled reports already mark every
  // domain it left unfinished; skipping the others costs one re-run of the
  // domains a deadline-bound request happened to finish.
  const bool cut = fresh->partial;
  for (core::DiscoveredSlice& slice : fresh->slices) {
    split[domain_of_url_.at(slice.source_url)].result.slices.push_back(
        std::move(slice));
  }
  std::lock_guard<std::mutex> results_lock(results_mu_);
  for (const uint32_t d : stale) {
    Split& out = split[d];
    if (cut || !out.clean) {
      for (auto& slice : out.result.slices) {
        unstored->push_back(std::move(slice));
      }
      results_[d].reset();
      continue;
    }
    out.result.detector_context = detector_context;
    out.result.rounds = 1;
    if (hierarchy_rounds) {
      for (const uint32_t si : domain_sources_[d]) {
        out.result.rounds = std::max(
            out.result.rounds, web::UrlDepth(corpus_.sources()[si].url) + 1);
      }
    }
    (*results)[d] = std::make_shared<const DomainResult>(std::move(out.result));
    results_[d] = (*results)[d];
  }
}

HttpResponse DiscoveryService::HandleDiscover(const HttpRequest& request,
                                              const fault::CancelToken& cancel) {
  DiscoverOptions opts;
  if (Status status = ParseDiscoverOptions(request.body, &opts);
      !status.ok()) {
    return HttpResponse::Error(400, status.message());
  }

  std::shared_lock<std::shared_mutex> lock(state_mu_);
  const uint64_t version = corpus_version_;
  const std::string cache_key =
      std::to_string(version) + "|" + CanonicalOptions(opts);
  if (opts.use_cache) {
    std::string cached;
    if (cache_.Lookup(cache_key, &cached)) {
      HttpResponse response;
      response.status = 200;
      response.SetHeader("Content-Type", "application/json");
      response.SetHeader("X-Midas-Cache", "hit");
      response.body = std::move(cached);
      return response;
    }
  }

  // A body deadline can only tighten the server-level one. The framework
  // polls a single token, so fold both deadlines into a local token when
  // the request brings its own.
  fault::CancelToken local_cancel;
  const fault::CancelToken* effective = &cancel;
  if (opts.deadline_ms > 0) {
    local_cancel.SetBudgetMs(opts.deadline_ms);
    const uint64_t server_deadline = cancel.deadline_ns();
    if (server_deadline != 0 &&
        server_deadline < local_cancel.deadline_ns()) {
      local_cancel.SetDeadlineNs(server_deadline);
    }
    effective = &local_cancel;
  }

  // The method was validated by ParseDiscoverOptions.
  const baselines::Method& method = *baselines::FindMethod(opts.method);
  const uint64_t detector_context =
      baselines::DetectorContext(opts.method, opts.cost, /*ranges=*/false,
                                 kb_hash_);
  Stopwatch watch;

  // Every domain keeps its stored result if one exists under this detector;
  // the rest ("stale") go through one framework run.
  std::vector<std::shared_ptr<const DomainResult>> results;
  {
    std::lock_guard<std::mutex> results_lock(results_mu_);
    results = results_;
  }
  std::vector<uint32_t> stale;
  size_t live_domains = 0;
  for (uint32_t d = 0; d < domain_sources_.size(); ++d) {
    if (domain_sources_[d].empty()) continue;  // merged into another
    ++live_domains;
    if (results[d] == nullptr ||
        results[d]->detector_context != detector_context) {
      results[d].reset();
      stale.push_back(d);
    }
  }
  const size_t reused = live_domains - stale.size();

  core::FrameworkResult fresh;
  std::vector<core::DiscoveredSlice> unstored;  // fresh, but not storable
  if (!stale.empty()) {
    web::Corpus stale_corpus(corpus_.shared_dict());
    const web::Corpus* run_corpus = &corpus_;
    if (stale.size() < live_domains) {
      for (const uint32_t d : stale) {
        for (const uint32_t si : domain_sources_[d]) {
          const web::WebSource& source = corpus_.sources()[si];
          const size_t index = stale_corpus.AddSource(source.url);
          stale_corpus.mutable_sources()[index].facts = source.facts;
        }
      }
      run_corpus = &stale_corpus;
    }
    baselines::DetectorConfig config;
    config.cost_model = opts.cost;
    const std::unique_ptr<core::SliceDetector> detector = method.make(config);
    core::FrameworkOptions framework_options;
    framework_options.num_threads = options_.num_threads;
    framework_options.use_hierarchy_rounds = method.hierarchy_rounds;
    framework_options.cancel = effective;
    framework_options.memo = &memo_;
    framework_options.detector_context = detector_context;
    const core::MidasFramework framework(detector.get(), framework_options);
    fresh = framework.Run(*run_corpus, kb_);

    StoreDomainResults(stale, detector_context, method.hierarchy_rounds,
                       &fresh, &results, &unstored);
  }
  MIDAS_OBS_ADD(MIDAS_OBS_COUNTER("serve.domains_reused"), reused);
  MIDAS_OBS_ADD(MIDAS_OBS_COUNTER("serve.domains_run"), stale.size());

  // Fold: the run's stats plus every reused domain's stored ones, then rank
  // every surviving slice by pointer and render only the top_k.
  core::FrameworkStats stats = fresh.stats;
  std::vector<const core::DiscoveredSlice*> ranked;
  for (const core::DiscoveredSlice& slice : unstored) ranked.push_back(&slice);
  for (uint32_t d = 0; d < results.size(); ++d) {
    if (results[d] == nullptr) continue;
    for (const core::DiscoveredSlice& slice : results[d]->slices) {
      ranked.push_back(&slice);
    }
    if (std::binary_search(stale.begin(), stale.end(), d)) continue;
    stats.shards_processed += results[d]->shards;
    stats.memo_hits += results[d]->shards;
    stats.detector_calls += results[d]->detector_calls;
    stats.rounds = std::max(stats.rounds, results[d]->rounds);
  }
  const size_t shown = opts.top_k == 0
                           ? ranked.size()
                           : std::min(static_cast<size_t>(opts.top_k),
                                      ranked.size());
  const auto ranks_before = [](const core::DiscoveredSlice* a,
                               const core::DiscoveredSlice* b) {
    return core::RanksBefore(*a, *b);
  };
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<ptrdiff_t>(shown),
                    ranked.end(),
                    ranks_before);
  JsonValue rows = JsonValue::Array();
  for (size_t i = 0; i < shown; ++i) {
    rows.Append(core::SliceToJson(*ranked[i], corpus_.dict()));
  }

  JsonValue report = JsonValue::Object();
  report.Set("corpus_version", JsonValue::Int(static_cast<int64_t>(version)));
  report.Set("method", JsonValue::Str(opts.method));
  report.Set("partial", JsonValue::Bool(fresh.partial));
  JsonValue stats_json = JsonValue::Object();
  stats_json.Set("detector_calls",
                 JsonValue::Int(static_cast<int64_t>(stats.detector_calls)));
  stats_json.Set("shards_processed",
                 JsonValue::Int(static_cast<int64_t>(stats.shards_processed)));
  stats_json.Set("memo_hits",
                 JsonValue::Int(static_cast<int64_t>(stats.memo_hits)));
  stats_json.Set("memo_misses",
                 JsonValue::Int(static_cast<int64_t>(stats.memo_misses)));
  stats_json.Set("rounds", JsonValue::Int(static_cast<int64_t>(stats.rounds)));
  stats_json.Set("seconds", JsonValue::Number(watch.ElapsedSeconds()));
  report.Set("stats", std::move(stats_json));
  report.Set("num_slices",
             JsonValue::Int(static_cast<int64_t>(ranked.size())));
  report.Set("slices", std::move(rows));

  HttpResponse response = HttpResponse::Json(200, report);
  // Partial (deadline-cut) results are real answers but must never be
  // cached: a later identical query deserves the full run.
  if (opts.use_cache && !fresh.partial) {
    cache_.Insert(cache_key, response.body);
  }
  response.SetHeader("X-Midas-Cache", fresh.partial ? "skip" : "miss");
  return response;
}

HttpResponse DiscoveryService::HandleIngest(const HttpRequest& request) {
  JsonValue parsed;
  if (Status status = JsonValue::Parse(request.body, &parsed); !status.ok()) {
    return HttpResponse::Error(400, status.message());
  }
  const JsonValue* facts = parsed.Get("facts");
  if (facts == nullptr || !facts->IsArray()) {
    return HttpResponse::Error(400, "body must have a \"facts\" array");
  }
  std::vector<extract::RawExtractedFact> delta;
  delta.reserve(facts->size());
  for (size_t i = 0; i < facts->size(); ++i) {
    const JsonValue& row = facts->at(i);
    const JsonValue* url = row.Get("url");
    const JsonValue* subject = row.Get("subject");
    const JsonValue* predicate = row.Get("predicate");
    const JsonValue* object = row.Get("object");
    if (url == nullptr || !url->IsString() || subject == nullptr ||
        !subject->IsString() || predicate == nullptr ||
        !predicate->IsString() || object == nullptr || !object->IsString()) {
      return HttpResponse::Error(
          400, StringPrintf("facts[%zu] needs string url/subject/predicate/"
                            "object",
                            i));
    }
    extract::RawExtractedFact fact;
    fact.url = url->AsString();
    fact.subject = subject->AsString();
    fact.predicate = predicate->AsString();
    fact.object = object->AsString();
    if (const JsonValue* c = row.Get("confidence")) {
      fact.confidence = c->AsDouble(1.0);
    }
    delta.push_back(std::move(fact));
  }

  std::unique_lock<std::shared_mutex> lock(state_mu_);
  const size_t known_sources = corpus_.NumSources();
  const extract::DeltaStats stats = extract::ApplyFactDelta(
      delta, options_.confidence_threshold, &corpus_);
  if (stats.added > 0) corpus_version_++;
  {
    std::lock_guard<std::mutex> results_lock(results_mu_);
    AddSourcesToDomains(known_sources);
    for (const std::string& url : stats.touched_urls) {
      results_[domain_of_url_.at(url)].reset();
    }
  }

  JsonValue report = JsonValue::Object();
  report.Set("added", JsonValue::Int(static_cast<int64_t>(stats.added)));
  report.Set("duplicates",
             JsonValue::Int(static_cast<int64_t>(stats.duplicates)));
  report.Set("below_threshold",
             JsonValue::Int(static_cast<int64_t>(stats.below_threshold)));
  JsonValue touched = JsonValue::Array();
  for (const auto& url : stats.touched_urls) {
    touched.Append(JsonValue::Str(url));
  }
  report.Set("touched_sources", std::move(touched));
  report.Set("corpus_version",
             JsonValue::Int(static_cast<int64_t>(corpus_version_)));
  return HttpResponse::Json(200, report);
}

HttpResponse DiscoveryService::HandleHealthz() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  JsonValue body = JsonValue::Object();
  body.Set("status", JsonValue::Str("ok"));
  body.Set("corpus_version",
           JsonValue::Int(static_cast<int64_t>(corpus_version_)));
  body.Set("sources",
           JsonValue::Int(static_cast<int64_t>(corpus_.NumSources())));
  body.Set("facts", JsonValue::Int(static_cast<int64_t>(corpus_.NumFacts())));
  body.Set("kb_facts", JsonValue::Int(static_cast<int64_t>(kb_.size())));
  body.Set("memo_entries",
           JsonValue::Int(static_cast<int64_t>(memo_.size())));
  return HttpResponse::Json(200, body);
}

}  // namespace serve
}  // namespace midas

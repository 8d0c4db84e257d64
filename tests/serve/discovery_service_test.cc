// DiscoveryService: routing, cache semantics, ingest/staleness contract,
// and the end-to-end acceptance test for `midas serve` — after an ingest,
// a warm /discover must return slices bit-identical to a cold run over the
// merged corpus while re-detecting only the delta-touched sources.

#include "midas/serve/discovery_service.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/corpus_fixture.h"
#include "midas/core/midas.h"
#include "midas/core/slice_io.h"
#include "midas/extract/extraction.h"
#include "midas/fault/cancel.h"
#include "midas/fault/fault.h"
#include "midas/obs/metrics.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/synth/corpus_generator.h"
#include "midas/util/json.h"
#include "midas/web/url.h"
#include "midas/web/web_source.h"

namespace midas {
namespace serve {
namespace {

HttpRequest MakeRequest(std::string method, std::string target,
                        std::string body = "") {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.version = "HTTP/1.1";
  request.body = std::move(body);
  return request;
}

const std::string* HeaderOf(const HttpResponse& response,
                            std::string_view name) {
  for (const auto& [key, value] : response.headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

JsonValue ParseBody(const HttpResponse& response) {
  JsonValue value;
  Status status = JsonValue::Parse(response.body, &value);
  EXPECT_TRUE(status.ok()) << response.body;
  return value;
}

std::unique_ptr<DiscoveryService> MakeService(
    DiscoveryServiceOptions options = {}) {
  auto dict = std::make_shared<rdf::Dictionary>();
  web::Corpus corpus(dict);
  tests::FillSectionedCorpus(&corpus);
  rdf::KnowledgeBase kb(dict);
  return std::make_unique<DiscoveryService>(std::move(corpus), std::move(kb),
                                            options);
}

class DiscoveryServiceTest : public ::testing::Test {
 protected:
  HttpResponse Call(DiscoveryService* service, const HttpRequest& request) {
    return service->Handle(request, token_);
  }

  fault::CancelToken token_;
};

TEST_F(DiscoveryServiceTest, HealthzReportsCorpusShape) {
  auto service = MakeService();
  const HttpResponse response =
      Call(service.get(), MakeRequest("GET", "/healthz"));
  ASSERT_EQ(response.status, 200);
  const JsonValue body = ParseBody(response);
  EXPECT_EQ(body.Get("status")->AsString(), "ok");
  EXPECT_EQ(body.Get("corpus_version")->AsInt(), 1);
  // FillSectionedCorpus: 4 sections x 6 entities, one fact each.
  EXPECT_EQ(body.Get("facts")->AsInt(), 24);
  EXPECT_GT(body.Get("sources")->AsInt(), 0);
  EXPECT_EQ(body.Get("memo_entries")->AsInt(), 0);
}

TEST_F(DiscoveryServiceTest, MetriczReturnsParsableJson) {
  auto service = MakeService();
  const HttpResponse response =
      Call(service.get(), MakeRequest("GET", "/metricz"));
  ASSERT_EQ(response.status, 200);
  EXPECT_TRUE(ParseBody(response).IsObject());
}

TEST_F(DiscoveryServiceTest, RoutingErrors) {
  auto service = MakeService();
  EXPECT_EQ(Call(service.get(), MakeRequest("GET", "/nope")).status, 404);
  EXPECT_EQ(Call(service.get(), MakeRequest("GET", "/discover")).status, 405);
  EXPECT_EQ(Call(service.get(), MakeRequest("PUT", "/ingest")).status, 405);
  EXPECT_EQ(Call(service.get(), MakeRequest("POST", "/healthz")).status, 405);
  EXPECT_EQ(Call(service.get(), MakeRequest("POST", "/metricz")).status, 405);
}

TEST_F(DiscoveryServiceTest, QueryStringIsStrippedFromRoute) {
  auto service = MakeService();
  EXPECT_EQ(Call(service.get(), MakeRequest("GET", "/healthz?verbose=1"))
                .status,
            200);
}

TEST_F(DiscoveryServiceTest, DiscoverRejectsBadOptions) {
  auto service = MakeService();
  EXPECT_EQ(
      Call(service.get(), MakeRequest("POST", "/discover", "not json")).status,
      400);
  EXPECT_EQ(Call(service.get(),
                 MakeRequest("POST", "/discover", "{\"method\":\"bogus\"}"))
                .status,
            400);
  EXPECT_EQ(Call(service.get(),
                 MakeRequest("POST", "/discover", "{\"top_k\":-1}"))
                .status,
            400);
  EXPECT_EQ(Call(service.get(),
                 MakeRequest("POST", "/discover", "{\"deadline_ms\":-5}"))
                .status,
            400);
  EXPECT_EQ(Call(service.get(), MakeRequest("POST", "/discover", "[1,2]"))
                .status,
            400);
}

TEST_F(DiscoveryServiceTest, IngestRejectsMalformedDeltas) {
  auto service = MakeService();
  EXPECT_EQ(Call(service.get(), MakeRequest("POST", "/ingest", "nope")).status,
            400);
  EXPECT_EQ(Call(service.get(), MakeRequest("POST", "/ingest", "{}")).status,
            400);
  EXPECT_EQ(Call(service.get(),
                 MakeRequest("POST", "/ingest", "{\"facts\":1}"))
                .status,
            400);
  const HttpResponse response = Call(
      service.get(),
      MakeRequest("POST", "/ingest",
                  "{\"facts\":[{\"url\":\"http://b.com/x\",\"subject\":1}]}"));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("facts[0]"), std::string::npos);
  // Nothing applied, version unchanged.
  EXPECT_EQ(service->corpus_version(), 1u);
}

TEST_F(DiscoveryServiceTest, DiscoverCachesCompleteResults) {
  auto service = MakeService();
  const HttpRequest request = MakeRequest("POST", "/discover", "{}");

  const HttpResponse cold = Call(service.get(), request);
  ASSERT_EQ(cold.status, 200);
  ASSERT_NE(HeaderOf(cold, "X-Midas-Cache"), nullptr);
  EXPECT_EQ(*HeaderOf(cold, "X-Midas-Cache"), "miss");
  const JsonValue cold_body = ParseBody(cold);
  EXPECT_FALSE(cold_body.Get("partial")->AsBool(true));
  EXPECT_GT(cold_body.Get("stats")->Get("memo_misses")->AsInt(), 0);
  EXPECT_EQ(cold_body.Get("stats")->Get("memo_hits")->AsInt(), 0);

  const HttpResponse warm = Call(service.get(), request);
  ASSERT_EQ(warm.status, 200);
  EXPECT_EQ(*HeaderOf(warm, "X-Midas-Cache"), "hit");
  EXPECT_EQ(warm.body, cold.body) << "cache hit must be byte-identical";

  // cache=false bypasses the cache but hits the memo: zero re-detections.
  const HttpResponse uncached = Call(
      service.get(), MakeRequest("POST", "/discover", "{\"cache\":false}"));
  ASSERT_EQ(uncached.status, 200);
  EXPECT_EQ(*HeaderOf(uncached, "X-Midas-Cache"), "miss");
  const JsonValue uncached_body = ParseBody(uncached);
  EXPECT_EQ(uncached_body.Get("stats")->Get("memo_misses")->AsInt(), 0);
  EXPECT_EQ(uncached_body.Get("stats")->Get("memo_hits")->AsInt(),
            cold_body.Get("stats")->Get("shards_processed")->AsInt());
  EXPECT_EQ(uncached_body.Get("slices")->Dump(),
            cold_body.Get("slices")->Dump());
}

TEST_F(DiscoveryServiceTest, DifferentOptionsGetDifferentCacheEntries) {
  auto service = MakeService();
  ASSERT_EQ(Call(service.get(), MakeRequest("POST", "/discover", "{}")).status,
            200);
  // Same corpus version, different cost model: must not hit.
  const HttpResponse other = Call(
      service.get(), MakeRequest("POST", "/discover", "{\"f_p\":99.0}"));
  ASSERT_EQ(other.status, 200);
  EXPECT_EQ(*HeaderOf(other, "X-Midas-Cache"), "miss");
  // Deadline is excluded from the key: a budgeted re-ask of a cached
  // complete result is a hit.
  const HttpResponse budgeted = Call(
      service.get(),
      MakeRequest("POST", "/discover", "{\"deadline_ms\":60000}"));
  ASSERT_EQ(budgeted.status, 200);
  EXPECT_EQ(*HeaderOf(budgeted, "X-Midas-Cache"), "hit");
}

TEST_F(DiscoveryServiceTest, TopKTruncatesSlicesNotStats) {
  auto service = MakeService();
  // naive has no hierarchy consolidation, so each page keeps its own slice
  // and there is something to truncate.
  const HttpResponse all = Call(
      service.get(),
      MakeRequest("POST", "/discover",
                  "{\"method\":\"naive\",\"top_k\":0}"));
  ASSERT_EQ(all.status, 200);
  const JsonValue all_body = ParseBody(all);
  const int64_t total = all_body.Get("num_slices")->AsInt();
  ASSERT_GT(total, 1) << "fixture must produce multiple slices";

  const HttpResponse one = Call(
      service.get(),
      MakeRequest("POST", "/discover",
                  "{\"method\":\"naive\",\"top_k\":1}"));
  const JsonValue one_body = ParseBody(one);
  EXPECT_EQ(one_body.Get("num_slices")->AsInt(), total);
  EXPECT_EQ(one_body.Get("slices")->size(), 1u);
  EXPECT_EQ(one_body.Get("slices")->at(0).Dump(),
            all_body.Get("slices")->at(0).Dump());
}

TEST_F(DiscoveryServiceTest, BaselineMethodsAreServed) {
  auto service = MakeService();
  for (const char* method : {"greedy", "aggcluster", "naive"}) {
    const HttpResponse response = Call(
        service.get(),
        MakeRequest("POST", "/discover",
                    std::string("{\"method\":\"") + method + "\"}"));
    ASSERT_EQ(response.status, 200) << method;
    EXPECT_EQ(ParseBody(response).Get("method")->AsString(), method);
  }
}

TEST_F(DiscoveryServiceTest, IngestAppliesDeltaAndBumpsVersion) {
  auto service = MakeService();
  const HttpResponse response = Call(
      service.get(),
      MakeRequest(
          "POST", "/ingest",
          "{\"facts\":["
          // Two fresh facts on a brand-new page.
          "{\"url\":\"http://b.com/x/page.htm\",\"subject\":\"n0\","
          "\"predicate\":\"cat\",\"object\":\"rocket\"},"
          "{\"url\":\"http://b.com/x/page.htm\",\"subject\":\"n1\","
          "\"predicate\":\"cat\",\"object\":\"rocket\"},"
          // Exact duplicate of a fixture fact.
          "{\"url\":\"http://a.com/sec0/page.htm\",\"subject\":\"e0_0\","
          "\"predicate\":\"cat\",\"object\":\"rocket\"},"
          // Below the confidence threshold.
          "{\"url\":\"http://c.com/y\",\"subject\":\"low\","
          "\"predicate\":\"cat\",\"object\":\"rocket\","
          "\"confidence\":0.1}"
          "]}"));
  ASSERT_EQ(response.status, 200);
  const JsonValue body = ParseBody(response);
  EXPECT_EQ(body.Get("added")->AsInt(), 2);
  EXPECT_EQ(body.Get("duplicates")->AsInt(), 1);
  EXPECT_EQ(body.Get("below_threshold")->AsInt(), 1);
  EXPECT_EQ(body.Get("corpus_version")->AsInt(), 2);
  const JsonValue* touched = body.Get("touched_sources");
  ASSERT_EQ(touched->size(), 1u);
  EXPECT_NE(touched->at(0).AsString().find("b.com"), std::string::npos);
  EXPECT_EQ(service->corpus_version(), 2u);

  // A delta that adds nothing must not bump the version (the result cache
  // stays valid).
  const HttpResponse noop = Call(
      service.get(),
      MakeRequest("POST", "/ingest",
                  "{\"facts\":[{\"url\":\"http://a.com/sec0/page.htm\","
                  "\"subject\":\"e0_0\",\"predicate\":\"cat\","
                  "\"object\":\"rocket\"}]}"));
  ASSERT_EQ(noop.status, 200);
  EXPECT_EQ(ParseBody(noop).Get("added")->AsInt(), 0);
  EXPECT_EQ(service->corpus_version(), 2u);
}

TEST_F(DiscoveryServiceTest, IngestInvalidatesResultCache) {
  auto service = MakeService();
  const HttpRequest request = MakeRequest("POST", "/discover", "{}");
  ASSERT_EQ(Call(service.get(), request).status, 200);
  ASSERT_EQ(*HeaderOf(Call(service.get(), request), "X-Midas-Cache"), "hit");

  ASSERT_EQ(Call(service.get(),
                 MakeRequest("POST", "/ingest",
                             "{\"facts\":[{\"url\":\"http://b.com/z\","
                             "\"subject\":\"s\",\"predicate\":\"cat\","
                             "\"object\":\"rocket\"}]}"))
                .status,
            200);
  // New corpus version => new cache key => full lookup miss.
  const HttpResponse after = Call(service.get(), request);
  ASSERT_EQ(after.status, 200);
  EXPECT_EQ(*HeaderOf(after, "X-Midas-Cache"), "miss");
  EXPECT_EQ(ParseBody(after).Get("corpus_version")->AsInt(), 2);
}

// The acceptance test for the whole serve stack: ingest-then-discover must
// be *incrementally* computed (only the delta-touched ancestry re-detects)
// yet *bit-identical* to throwing the warm state away and re-running cold
// over the merged corpus.
TEST_F(DiscoveryServiceTest, IngestThenDiscoverMatchesColdRunOverMergedCorpus) {
  auto service = MakeService();
  // Cold run to populate the memo (cache bypassed so stats are live).
  const HttpRequest uncached =
      MakeRequest("POST", "/discover", "{\"cache\":false}");
  const JsonValue cold = ParseBody(Call(service.get(), uncached));
  const int64_t shards = cold.Get("stats")->Get("shards_processed")->AsInt();
  ASSERT_GT(shards, 0);
  EXPECT_EQ(cold.Get("stats")->Get("memo_misses")->AsInt(), shards);

  // The delta: two new entities on an existing page.
  const std::string delta_json =
      "{\"facts\":["
      "{\"url\":\"http://a.com/sec0/page.htm\",\"subject\":\"fresh0\","
      "\"predicate\":\"cat\",\"object\":\"rocket\"},"
      "{\"url\":\"http://a.com/sec0/page.htm\",\"subject\":\"fresh1\","
      "\"predicate\":\"cat\",\"object\":\"rocket\"}"
      "]}";
  const HttpResponse ingest =
      Call(service.get(), MakeRequest("POST", "/ingest", delta_json));
  ASSERT_EQ(ingest.status, 200);
  ASSERT_EQ(ParseBody(ingest).Get("added")->AsInt(), 2);

  // Warm discover: only the touched page and its section/host ancestors
  // lose memo validity — 3 re-detections, everything else hits.
  const JsonValue warm = ParseBody(Call(service.get(), uncached));
  EXPECT_EQ(warm.Get("corpus_version")->AsInt(), 2);
  EXPECT_EQ(warm.Get("stats")->Get("memo_misses")->AsInt(), 3)
      << "page + section + host re-detect";
  EXPECT_EQ(warm.Get("stats")->Get("memo_hits")->AsInt(), shards - 3);

  // Reference: a cold service over the equivalent merged corpus.
  auto dict = std::make_shared<rdf::Dictionary>();
  web::Corpus merged(dict);
  tests::FillSectionedCorpus(&merged);
  std::vector<extract::RawExtractedFact> delta;
  for (const char* subject : {"fresh0", "fresh1"}) {
    extract::RawExtractedFact fact;
    fact.url = "http://a.com/sec0/page.htm";
    fact.subject = subject;
    fact.predicate = "cat";
    fact.object = "rocket";
    delta.push_back(fact);
  }
  ASSERT_EQ(extract::ApplyFactDelta(delta, 0.7, &merged).added, 2u);
  rdf::KnowledgeBase kb(dict);
  DiscoveryService reference(std::move(merged), std::move(kb));
  const JsonValue ref = ParseBody(Call(&reference, uncached));

  EXPECT_EQ(warm.Get("slices")->Dump(), ref.Get("slices")->Dump())
      << "incremental result must be bit-identical to a cold full re-run";
  EXPECT_EQ(warm.Get("num_slices")->AsInt(), ref.Get("num_slices")->AsInt());
}

// --- Per-domain reuse over a many-domain corpus -----------------------

constexpr uint64_t kGeneratedSeed = 77;

/// A seeded multi-domain corpus (24 ClosedIE domains, KB included), built
/// the same way every call so a warm service and a cold reference agree.
synth::GeneratedCorpus Generate() {
  return synth::GenerateCorpus(
      synth::SlimParams(/*open_ie=*/false, /*num_sources=*/24,
                        kGeneratedSeed));
}

/// A cold service over the generated corpus with `deltas` applied in order.
std::unique_ptr<DiscoveryService> MakeColdService(
    const std::vector<std::vector<extract::RawExtractedFact>>& deltas) {
  synth::GeneratedCorpus data = Generate();
  data.corpus->RebuildDedupIndex();
  for (const auto& delta : deltas) {
    extract::ApplyFactDelta(delta, 0.7, data.corpus.get());
  }
  return std::make_unique<DiscoveryService>(std::move(*data.corpus),
                                            std::move(*data.kb));
}

std::string DeltaJson(const std::vector<extract::RawExtractedFact>& delta) {
  JsonValue facts = JsonValue::Array();
  for (const auto& f : delta) {
    JsonValue row = JsonValue::Object();
    row.Set("url", JsonValue::Str(f.url));
    row.Set("subject", JsonValue::Str(f.subject));
    row.Set("predicate", JsonValue::Str(f.predicate));
    row.Set("object", JsonValue::Str(f.object));
    facts.Append(std::move(row));
  }
  JsonValue body = JsonValue::Object();
  body.Set("facts", std::move(facts));
  return body.Dump();
}

/// Two new entities on `url`, each with two (predicate, object) pairs of
/// `like`, so the delta can reshape that source's slices.
std::vector<extract::RawExtractedFact> MakeDelta(
    const web::WebSource& like, const rdf::Dictionary& dict,
    const std::string& url, const std::string& tag) {
  std::vector<extract::RawExtractedFact> delta;
  for (size_t e = 0; e < 2; ++e) {
    for (size_t k = 0; k < 2 && k < like.facts.size(); ++k) {
      const rdf::Triple& t = like.facts[(e + k) % like.facts.size()];
      extract::RawExtractedFact fact;
      fact.url = url;
      fact.subject = tag + "_entity" + std::to_string(e);
      fact.predicate = dict.Term(t.predicate);
      fact.object = dict.Term(t.object);
      delta.push_back(fact);
    }
  }
  return delta;
}

/// The first source whose URL has path segments (a page, not a host).
const web::WebSource& SomePage(const web::Corpus& corpus, size_t skip) {
  for (const web::WebSource& source : corpus.sources()) {
    if (web::UrlDepth(source.url) >= 2 && skip-- == 0) return source;
  }
  return corpus.sources().front();
}

uint64_t CounterValue(const char* name) {
#ifndef MIDAS_OBS_NOOP
  const obs::Counter* c = obs::Registry::Global().FindCounter(name);
  return c == nullptr ? 0 : c->Value();
#else
  (void)name;
  return 0;
#endif
}

/// Slices byte-identical and stats equal to a cold service's; the warm
/// side's memo hits and misses still add up to its shards.
void ExpectSameAsCold(const JsonValue& warm, const JsonValue& cold) {
  EXPECT_FALSE(warm.Get("partial")->AsBool(true));
  EXPECT_EQ(warm.Get("slices")->Dump(), cold.Get("slices")->Dump());
  EXPECT_EQ(warm.Get("num_slices")->AsInt(), cold.Get("num_slices")->AsInt());
  const JsonValue& ws = *warm.Get("stats");
  const JsonValue& cs = *cold.Get("stats");
  for (const char* field : {"shards_processed", "detector_calls", "rounds"}) {
    EXPECT_EQ(ws.Get(field)->AsInt(), cs.Get(field)->AsInt()) << field;
  }
  EXPECT_EQ(ws.Get("memo_hits")->AsInt() + ws.Get("memo_misses")->AsInt(),
            ws.Get("shards_processed")->AsInt());
}

TEST_F(DiscoveryServiceTest,
       IncrementalDiscoverMatchesColdServiceAcrossDomains) {
  const synth::GeneratedCorpus base = Generate();
  std::set<std::string> roots;
  for (const auto& source : base.corpus->sources()) {
    roots.emplace(web::UrlAncestry(source.url).back());
  }
  ASSERT_GE(roots.size(), 10u);

  auto warm = MakeColdService({});
  std::vector<std::vector<extract::RawExtractedFact>> deltas;
  const char* configs[] = {
      "{\"cache\":false,\"top_k\":0}",
      "{\"cache\":false,\"top_k\":0,\"method\":\"greedy\"}",
      "{\"cache\":false,\"top_k\":0,\"method\":\"naive\",\"f_p\":5}",
      "{\"cache\":false,\"top_k\":0,\"method\":\"aggcluster\"}",
      "{\"cache\":false,\"top_k\":0,\"f_c\":0.05}",
  };
  size_t step = 0;
  for (const char* config : configs) {
    SCOPED_TRACE(config);
    const HttpRequest discover = MakeRequest("POST", "/discover", config);
    // Populate this detector's stored results (every domain runs).
    ParseBody(Call(warm.get(), discover));
    for (int kind = 0; kind < 3; ++kind, ++step) {
      SCOPED_TRACE("ingest kind " + std::to_string(kind));
      const web::WebSource& like = SomePage(*base.corpus, step);
      const std::string tag = "fresh" + std::to_string(step);
      std::string url;
      switch (kind) {
        case 0:  // an existing page
          url = like.url;
          break;
        case 1:  // a new page of an existing domain
          url = std::string(web::UrlAncestry(like.url).back()) + "/" + tag +
                "/page.htm";
          break;
        default:  // a brand-new domain
          url = "http://" + tag + ".example.org/s/page.htm";
          break;
      }
      deltas.push_back(MakeDelta(like, *base.dict, url, tag));
      const size_t domains = roots.size() + (kind == 2 ? 1 : 0);
      if (kind == 2) roots.insert("http://" + tag + ".example.org");
      ASSERT_EQ(Call(warm.get(), MakeRequest("POST", "/ingest",
                                             DeltaJson(deltas.back())))
                    .status,
                200);

      const uint64_t run_before = CounterValue("serve.domains_run");
      const uint64_t reused_before = CounterValue("serve.domains_reused");
      const JsonValue incremental = ParseBody(Call(warm.get(), discover));
#ifndef MIDAS_OBS_NOOP
      // Only the touched domain re-runs; every other one is reused.
      EXPECT_EQ(CounterValue("serve.domains_run") - run_before, 1u);
      EXPECT_EQ(CounterValue("serve.domains_reused") - reused_before,
                domains - 1);
#else
      (void)run_before;
      (void)reused_before;
      (void)domains;
#endif
      auto cold = MakeColdService(deltas);
      const JsonValue reference = ParseBody(Call(cold.get(), discover));
      ExpectSameAsCold(incremental, reference);
      if (kind == 0 && std::string(config).find("aggcluster") ==
                           std::string::npos &&
          std::string(config).find("naive") == std::string::npos) {
        // Hierarchy methods re-detect the page and its URL ancestors.
        EXPECT_EQ(incremental.Get("stats")->Get("memo_misses")->AsInt(),
                  static_cast<int64_t>(web::UrlAncestry(url).size()));
      }
    }
  }
}

TEST_F(DiscoveryServiceTest, ConcurrentDiscoversAfterIngestAgree) {
  auto warm = MakeColdService({});
  const HttpRequest discover =
      MakeRequest("POST", "/discover", "{\"cache\":false,\"top_k\":0}");
  ParseBody(Call(warm.get(), discover));
  const synth::GeneratedCorpus base = Generate();
  const web::WebSource& like = SomePage(*base.corpus, 0);
  const std::vector<std::vector<extract::RawExtractedFact>> deltas = {
      MakeDelta(like, *base.dict, like.url, "concurrent")};
  ASSERT_EQ(Call(warm.get(),
                 MakeRequest("POST", "/ingest", DeltaJson(deltas[0])))
                .status,
            200);

  HttpResponse responses[2];
  std::vector<std::thread> threads;
  for (HttpResponse& response : responses) {
    threads.emplace_back([&, out = &response] {
      *out = warm->Handle(discover, token_);
    });
  }
  for (auto& thread : threads) thread.join();

  auto cold = MakeColdService(deltas);
  const JsonValue reference = ParseBody(Call(cold.get(), discover));
  for (const HttpResponse& response : responses) {
    ASSERT_EQ(response.status, 200);
    ExpectSameAsCold(ParseBody(response), reference);
  }
  // Whichever request stored last, the next one reuses every domain.
  const JsonValue after = ParseBody(Call(warm.get(), discover));
  ExpectSameAsCold(after, reference);
  EXPECT_EQ(after.Get("stats")->Get("memo_misses")->AsInt(), 0);
}

// Unparsable URLs are kept as given, and their ancestries can cross:
// "foo/bar/" climbs to a depth-0 shard "foo/bar", while "foo/bar" itself is
// a depth-1 shard under "foo". Both roots then name one domain, so every
// shard URL (and every slice's source_url) belongs to exactly one domain.
TEST_F(DiscoveryServiceTest, DomainsSharingAShardUrlAreOne) {
  const auto fill = [](web::Corpus* corpus) {
    // Registered in this order, "foo/bar" joins the domains of "foo/bar/"
    // and "foo" after both exist.
    for (const char* url :
         {"foo/bar/", "foo", "foo/bar", "http://b.com/p/q.htm"}) {
      for (int e = 0; e < 6; ++e) {
        corpus->AddFactRaw(url, std::string(url) + "#e" + std::to_string(e),
                           "cat", e < 4 ? "rocket" : "probe");
      }
    }
  };
  const auto make = [&](bool with_delta) {
    auto dict = std::make_shared<rdf::Dictionary>();
    web::Corpus corpus(dict);
    fill(&corpus);
    if (with_delta) {
      for (int e = 0; e < 3; ++e) {
        corpus.AddFactRaw("foo/bar/", "fresh" + std::to_string(e), "cat",
                          "probe");
      }
    }
    return std::make_unique<DiscoveryService>(std::move(corpus),
                                              rdf::KnowledgeBase(dict));
  };
  const HttpRequest discover =
      MakeRequest("POST", "/discover", "{\"cache\":false,\"top_k\":0}");

  // The fold equals one plain framework run over the whole corpus.
  auto dict = std::make_shared<rdf::Dictionary>();
  web::Corpus corpus(dict);
  fill(&corpus);
  const rdf::KnowledgeBase kb(dict);
  core::MidasAlg alg{core::MidasOptions{}};
  const core::FrameworkResult direct =
      core::MidasFramework(&alg).Run(corpus, kb);
  auto warm = make(/*with_delta=*/false);
  const JsonValue cold = ParseBody(Call(warm.get(), discover));
  EXPECT_EQ(cold.Get("slices")->Dump(),
            core::SlicesToJson(direct.slices, corpus.dict()).Dump());
  EXPECT_EQ(cold.Get("stats")->Get("shards_processed")->AsInt(),
            static_cast<int64_t>(direct.stats.shards_processed));

  std::string delta = "{\"facts\":[";
  for (int e = 0; e < 3; ++e) {
    if (e > 0) delta += ",";
    delta += "{\"url\":\"foo/bar/\",\"subject\":\"fresh" + std::to_string(e) +
             "\",\"predicate\":\"cat\",\"object\":\"probe\"}";
  }
  delta += "]}";
  ASSERT_EQ(Call(warm.get(), MakeRequest("POST", "/ingest", delta)).status,
            200);
  const JsonValue incremental = ParseBody(Call(warm.get(), discover));
  auto reference = make(/*with_delta=*/true);
  ExpectSameAsCold(incremental, ParseBody(Call(reference.get(), discover)));
  // b.com's domain was reused: only the merged foo domain re-detected.
  EXPECT_GT(incremental.Get("stats")->Get("memo_hits")->AsInt(), 0);
}

#ifdef MIDAS_FAULT_INJECTION

/// Ingests one delta into an existing page, runs `faulted` under
/// `fault_spec`, then checks that the next clean /discover re-runs the
/// touched domain (its shards re-detect: nothing of the faulted run was
/// stored) and matches a cold service.
void ExpectFaultedDomainIsRerun(const fault::CancelToken& token,
                                const char* fault_spec,
                                const std::string& faulted_body,
                                bool expect_partial) {
  auto warm = MakeColdService({});
  const HttpRequest discover =
      MakeRequest("POST", "/discover", "{\"cache\":false,\"top_k\":0}");
  ParseBody(warm->Handle(discover, token));
  const synth::GeneratedCorpus base = Generate();
  const web::WebSource& like = SomePage(*base.corpus, 1);
  const std::vector<std::vector<extract::RawExtractedFact>> deltas = {
      MakeDelta(like, *base.dict, like.url, "faulted")};
  ASSERT_EQ(warm->Handle(MakeRequest("POST", "/ingest", DeltaJson(deltas[0])),
                         token)
                .status,
            200);
  const int64_t ancestry =
      static_cast<int64_t>(web::UrlAncestry(like.url).size());
  {
    fault::ScopedFaultSpec spec(fault_spec);
    const JsonValue faulted = ParseBody(warm->Handle(
        MakeRequest("POST", "/discover", faulted_body), token));
    EXPECT_EQ(faulted.Get("partial")->AsBool(!expect_partial),
              expect_partial);
  }
  const uint64_t run_before = CounterValue("serve.domains_run");
  const JsonValue after = ParseBody(warm->Handle(discover, token));
#ifndef MIDAS_OBS_NOOP
  EXPECT_EQ(CounterValue("serve.domains_run") - run_before, 1u);
#else
  (void)run_before;
#endif
  auto cold = MakeColdService(deltas);
  ExpectSameAsCold(after, ParseBody(cold->Handle(discover, token)));
  EXPECT_EQ(after.Get("stats")->Get("memo_misses")->AsInt(), ancestry)
      << "the faulted domain's shards must re-detect";
}

TEST_F(DiscoveryServiceTest, DomainWithFailedShardIsNotReused) {
  // Every detect throws: the touched domain's re-detected shards end
  // kFailed (the rest of the domain and every other domain are memo hits or
  // reused, so never reach the detector).
  ExpectFaultedDomainIsRerun(token_, "site=detector,rate=1",
                             "{\"cache\":false,\"top_k\":0}",
                             /*expect_partial=*/false);
}

TEST_F(DiscoveryServiceTest, DeadlineCutDomainIsNotReused) {
  ExpectFaultedDomainIsRerun(token_, "site=slow_shard,delay_ms=50",
                             "{\"cache\":false,\"top_k\":0,"
                             "\"deadline_ms\":1}",
                             /*expect_partial=*/true);
}

// Every source is a page (host/section/page, nothing at a section or host
// URL), so a deadline that fires inside the first (page) round leaves some
// domains with every page finished and no section or host run. None of
// those may be stored: the next clean /discover must equal a cold one.
TEST_F(DiscoveryServiceTest, DeadlineCutInsideAPageRoundStoresNothing) {
  constexpr int kDomains = 12;
  const auto make = [] {
    auto dict = std::make_shared<rdf::Dictionary>();
    web::Corpus corpus(dict);
    for (int d = 0; d < kDomains; ++d) {
      for (int p = 0; p < 2; ++p) {
        const std::string url = "http://d" + std::to_string(d) +
                                ".com/sec/p" + std::to_string(p) + ".htm";
        for (int e = 0; e < 6; ++e) {
          corpus.AddFactRaw(url, url + "#e" + std::to_string(e), "cat",
                            e < 4 ? "rocket" : "probe");
        }
      }
    }
    DiscoveryServiceOptions options;
    options.num_threads = 1;
    return std::make_unique<DiscoveryService>(
        std::move(corpus), rdf::KnowledgeBase(dict), options);
  };
  auto warm = make();
  {
    // 24 pages at 25 ms each on one thread: the 150 ms budget runs out
    // inside the page round, after the first few domains' pages finished.
    fault::ScopedFaultSpec spec("site=slow_shard,delay_ms=25");
    const JsonValue cut = ParseBody(Call(
        warm.get(),
        MakeRequest("POST", "/discover",
                    "{\"cache\":false,\"top_k\":0,\"deadline_ms\":150}")));
    EXPECT_TRUE(cut.Get("partial")->AsBool(false));
    EXPECT_GE(cut.Get("stats")->Get("shards_processed")->AsInt(), 2)
        << "the cut came before any domain finished its pages";
  }
  const HttpRequest discover =
      MakeRequest("POST", "/discover", "{\"cache\":false,\"top_k\":0}");
  const uint64_t run_before = CounterValue("serve.domains_run");
  const JsonValue after = ParseBody(Call(warm.get(), discover));
#ifndef MIDAS_OBS_NOOP
  EXPECT_EQ(CounterValue("serve.domains_run") - run_before,
            static_cast<uint64_t>(kDomains));
#else
  (void)run_before;
#endif
  auto cold = make();
  ExpectSameAsCold(after, ParseBody(Call(cold.get(), discover)));
}

TEST_F(DiscoveryServiceTest, PartialResultsAreNeverCached) {
  auto service = MakeService();
  const HttpRequest request =
      MakeRequest("POST", "/discover", "{\"deadline_ms\":1}");
  {
    // Slow every shard so the 1 ms budget is guaranteed to expire.
    fault::ScopedFaultSpec spec("site=slow_shard,delay_ms=50");
    const HttpResponse partial = Call(service.get(), request);
    ASSERT_EQ(partial.status, 200);
    EXPECT_TRUE(ParseBody(partial).Get("partial")->AsBool(false));
    EXPECT_EQ(*HeaderOf(partial, "X-Midas-Cache"), "skip");
  }
  // The same query without a budget re-runs and completes: no stale
  // partial serve. deadline_ms is not part of the cache key, so a cached
  // partial answer would be served here; the re-run has no deadline to race.
  const HttpResponse full =
      Call(service.get(), MakeRequest("POST", "/discover", "{}"));
  ASSERT_EQ(full.status, 200);
  EXPECT_EQ(*HeaderOf(full, "X-Midas-Cache"), "miss");
  EXPECT_FALSE(ParseBody(full).Get("partial")->AsBool(true));
}

#endif  // MIDAS_FAULT_INJECTION

}  // namespace
}  // namespace serve
}  // namespace midas

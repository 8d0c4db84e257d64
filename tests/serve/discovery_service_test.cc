// DiscoveryService: routing, cache semantics, ingest/staleness contract,
// and the end-to-end acceptance test for `midas serve` — after an ingest,
// a warm /discover must return slices bit-identical to a cold run over the
// merged corpus while re-detecting only the delta-touched sources.

#include "midas/serve/discovery_service.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/corpus_fixture.h"
#include "midas/extract/extraction.h"
#include "midas/fault/cancel.h"
#include "midas/fault/fault.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/util/json.h"
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

#ifdef MIDAS_FAULT_INJECTION

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

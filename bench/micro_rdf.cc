// Microbenchmarks for the RDF substrate: dictionary interning, triple-store
// insertion, membership probes (the profit function's hot call), and
// pattern queries.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/rdf/triple_store.h"
#include "midas/util/random.h"
#include "midas/util/string_util.h"

namespace midas {
namespace rdf {
namespace {

void BM_DictionaryIntern(benchmark::State& state) {
  std::vector<std::string> terms;
  for (int i = 0; i < 10000; ++i) {
    terms.push_back(StringPrintf("term_%d", i));
  }
  for (auto _ : state) {
    Dictionary dict;
    for (const auto& t : terms) {
      benchmark::DoNotOptimize(dict.Intern(t));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_DictionaryIntern);

void BM_DictionaryLookupHit(benchmark::State& state) {
  Dictionary dict;
  std::vector<std::string> terms;
  for (int i = 0; i < 10000; ++i) {
    terms.push_back(StringPrintf("term_%d", i));
    dict.Intern(terms.back());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict.Lookup(terms[i++ % terms.size()]));
  }
}
BENCHMARK(BM_DictionaryLookupHit);

std::vector<Triple> MakeTriples(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Triple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.emplace_back(static_cast<TermId>(rng.Uniform(n / 4 + 1)),
                     static_cast<TermId>(rng.Uniform(64)),
                     static_cast<TermId>(rng.Uniform(n / 2 + 1)));
  }
  return out;
}

void BM_TripleStoreInsert(benchmark::State& state) {
  auto triples = MakeTriples(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    TripleStore store;
    store.InsertAll(triples);
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TripleStoreInsert)->Arg(10000)->Arg(100000);

void BM_KnowledgeBaseContains(benchmark::State& state) {
  auto dict = std::make_shared<Dictionary>();
  KnowledgeBase kb(dict);
  auto triples = MakeTriples(100000, 2);
  kb.AddAll(triples);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kb.Contains(triples[i++ % triples.size()]));
  }
}
BENCHMARK(BM_KnowledgeBaseContains);

void BM_TripleStoreFreeze(benchmark::State& state) {
  auto triples = MakeTriples(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    state.PauseTiming();
    TripleStore store;
    store.InsertAll(triples);
    state.ResumeTiming();
    store.Freeze();
    benchmark::DoNotOptimize(store.size());
  }
}
BENCHMARK(BM_TripleStoreFreeze)->Arg(10000)->Arg(100000);

void BM_TripleStorePatternQuery(benchmark::State& state) {
  TripleStore store;
  store.InsertAll(MakeTriples(100000, 4));
  store.Freeze();
  Rng rng(5);
  for (auto _ : state) {
    TriplePattern p;
    p.predicate = static_cast<TermId>(rng.Uniform(64));
    benchmark::DoNotOptimize(store.Find(p).size());
  }
}
BENCHMARK(BM_TripleStorePatternQuery);

}  // namespace
}  // namespace rdf
}  // namespace midas

MIDAS_BENCHMARK_MAIN_WITH_JSON_ARTIFACT()

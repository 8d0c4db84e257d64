// Microbenchmarks for the RDF substrate: dictionary interning and lazy
// indexing, triple-store insertion, membership probes (the profit
// function's hot call), and TSV KB loading.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <optional>

#include "bench_util.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/rdf/ntriples.h"
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

// The lazy catch-up after a columnar load: AdoptUnchecked appends the
// corpus's terms unindexed, and the first Lookup indexes all of them.
void BM_DictionaryIndexAdopted(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  std::vector<std::string> terms;
  for (int i = 0; i < n; ++i) {
    terms.push_back(StringPrintf("http://example.org/entity/%d", i));
  }
  std::optional<Dictionary> dict;
  for (auto _ : state) {
    state.PauseTiming();
    dict.emplace();  // the previous dictionary's teardown stays untimed
    dict->Reserve(terms.size());
    for (const auto& t : terms) dict->AdoptUnchecked(t);
    state.ResumeTiming();
    benchmark::DoNotOptimize(dict->Lookup(terms[0]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_DictionaryIndexAdopted)->Arg(100000);

// `midas discover --kb`'s load: parse a 3-column TSV KB and intern its
// terms into a fresh dictionary, then free both, as a CLI run does at exit.
void BM_LoadTsvFacts(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const std::string path =
      (std::filesystem::temp_directory_path() /
       StringPrintf("midas_micro_rdf_%d.tsv", static_cast<int>(::getpid())))
          .string();
  {
    Dictionary dict;
    std::vector<Triple> triples;
    for (const Triple& t : MakeTriples(n, 6)) {
      triples.emplace_back(
          dict.Intern(StringPrintf("http://example.org/entity/%u", t.subject)),
          dict.Intern(StringPrintf("predicate_%u", t.predicate)),
          dict.Intern(StringPrintf("value %u", t.object)));
    }
    if (!SaveTsvFacts(path, dict, triples).ok()) {
      state.SkipWithError("cannot write the TSV KB");
      return;
    }
  }
  for (auto _ : state) {
    Dictionary dict;
    std::vector<Triple> facts;
    if (!LoadTsvFacts(path, &dict, &facts).ok()) {
      state.SkipWithError("LoadTsvFacts failed");
      break;
    }
    benchmark::DoNotOptimize(facts.data());
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LoadTsvFacts)->Arg(100000);

}  // namespace
}  // namespace rdf
}  // namespace midas

MIDAS_BENCHMARK_MAIN_WITH_JSON_ARTIFACT()

// Subset and parallel columnar loads against the full serial load: a
// subset materialization of selected sources must equal filtering a full
// load to those sources (same TermIds, same fact order), and a
// multi-threaded load must be bit-identical to the serial one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/test_dir.h"
#include "midas/extract/columnar_io.h"
#include "midas/extract/extraction.h"
#include "midas/rdf/dictionary.h"
#include "midas/rdf/triple.h"
#include "midas/store/columnar.h"
#include "midas/util/random.h"
#include "midas/web/url.h"
#include "midas/web/web_source.h"

namespace midas {
namespace extract {
namespace {

class ColumnarSubsetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    col_path_ = tests::TestDir() + "/subset.midascol";
    std::remove(col_path_.c_str());
  }
  void TearDown() override { std::remove(col_path_.c_str()); }

  // Randomized dump shaped like the roundtrip tests: duplicate (url, triple)
  // pairs, confidences straddling 0.7. `grouped` stable-sorts records by URL
  // first appearance, the layout whose save carries the source-range index.
  ExtractionDump MakeDump(size_t n, uint64_t seed, bool grouped) const {
    Rng rng(seed);
    ExtractionDump dump;
    dump.dict = std::make_shared<rdf::Dictionary>();
    std::vector<rdf::TermId> entities, predicates;
    for (size_t i = 0; i < 40; ++i) {
      entities.push_back(dump.dict->Intern("entity" + std::to_string(i)));
    }
    for (size_t i = 0; i < 8; ++i) {
      predicates.push_back(dump.dict->Intern("pred" + std::to_string(i)));
    }
    for (size_t i = 0; i < n; ++i) {
      ExtractedFact fact;
      fact.url = "http://site" + std::to_string(rng.Uniform(12)) + ".com/page" +
                 std::to_string(rng.Uniform(6));
      fact.triple = rdf::Triple(entities[rng.Uniform(entities.size())],
                                predicates[rng.Uniform(predicates.size())],
                                entities[rng.Uniform(entities.size())]);
      fact.confidence = static_cast<double>(rng.Uniform(10001)) / 10000.0;
      dump.facts.push_back(std::move(fact));
    }
    if (grouped) {
      std::vector<std::pair<std::string, uint32_t>> order_vec;
      auto order_of = [&order_vec](const std::string& url) {
        for (const auto& [u, o] : order_vec) {
          if (u == url) return o;
        }
        order_vec.emplace_back(url, static_cast<uint32_t>(order_vec.size()));
        return order_vec.back().second;
      };
      std::stable_sort(dump.facts.begin(), dump.facts.end(),
                       [&](const ExtractedFact& a, const ExtractedFact& b) {
                         return order_of(a.url) < order_of(b.url);
                       });
    }
    return dump;
  }

  // Saves `dump`, opens a lazily-verified reader over it.
  void SaveAndOpen(const ExtractionDump& dump, store::ColumnarReader* reader) {
    ASSERT_TRUE(SaveColumnarDump(col_path_, dump).ok());
    store::ColumnarReadOptions options;
    options.lazy_verify = true;
    ASSERT_TRUE(reader->Open(col_path_, options).ok());
  }

  static void ExpectSourcesEqual(const web::WebSource& a,
                                 const web::WebSource& b) {
    EXPECT_EQ(a.url, b.url);
    ASSERT_EQ(a.facts.size(), b.facts.size()) << a.url;
    for (size_t f = 0; f < a.facts.size(); ++f) {
      // Raw TermId equality: both corpora adopted the same file dictionary.
      EXPECT_EQ(a.facts[f], b.facts[f]) << a.url << " fact " << f;
    }
  }

  static void ExpectDictionariesEqual(const rdf::Dictionary& a,
                                      const rdf::Dictionary& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t id = 0; id < a.size(); ++id) {
      EXPECT_EQ(a.Term(static_cast<rdf::TermId>(id)),
                b.Term(static_cast<rdf::TermId>(id)));
    }
  }

  std::string col_path_;
};

TEST_F(ColumnarSubsetTest, SubsetMatchesFilteredFullLoad) {
  const ExtractionDump dump = MakeDump(5000, 31, /*grouped=*/true);
  store::ColumnarReader reader;
  SaveAndOpen(dump, &reader);
  ASSERT_TRUE(reader.has_source_index());

  for (double threshold : {0.0, 0.7}) {
    ColumnarLoadOptions options;
    options.threshold = threshold;
    web::Corpus full;
    ASSERT_TRUE(LoadColumnarCorpusFromReader(&reader, options, &full).ok());
    // Fresh dictionary: the file's terms adopted verbatim, code = TermId.
    EXPECT_EQ(full.dict().size(), reader.num_terms());

    // Select every third source of the full corpus, then every file url
    // code normalizing to a selected source (whole canon groups).
    std::set<std::string> selected_urls;
    std::vector<size_t> selected_sources;
    for (size_t s = 0; s < full.NumSources(); s += 3) {
      selected_sources.push_back(s);
      selected_urls.insert(full.sources()[s].url);
    }
    std::vector<uint32_t> url_codes;
    for (uint32_t code = 0; code < reader.num_urls(); ++code) {
      if (selected_urls.count(web::NormalizeUrl(reader.url(code))) > 0) {
        url_codes.push_back(code);
      }
    }

    // Seeded with the full load's dictionary, the subset's lazy interning
    // resolves every term to its existing id — raw TermId equality holds.
    ColumnarLoadOptions seeded = options;
    seeded.dict = full.shared_dict();
    web::Corpus subset;
    ASSERT_TRUE(
        LoadColumnarCorpusSubset(&reader, url_codes, seeded, &subset).ok());
    ASSERT_EQ(subset.NumSources(), selected_sources.size());
    for (size_t i = 0; i < selected_sources.size(); ++i) {
      ExpectSourcesEqual(full.sources()[selected_sources[i]],
                         subset.sources()[i]);
    }

    // A fresh dictionary interns in first-use order: ids may differ from
    // the file codes, but every resolved term string must still match.
    web::Corpus fresh;
    ASSERT_TRUE(
        LoadColumnarCorpusSubset(&reader, url_codes, options, &fresh).ok());
    ASSERT_EQ(fresh.NumSources(), selected_sources.size());
    for (size_t i = 0; i < selected_sources.size(); ++i) {
      const web::WebSource& want = full.sources()[selected_sources[i]];
      const web::WebSource& got = fresh.sources()[i];
      EXPECT_EQ(want.url, got.url);
      ASSERT_EQ(want.facts.size(), got.facts.size()) << want.url;
      for (size_t f = 0; f < want.facts.size(); ++f) {
        EXPECT_EQ(full.dict().Term(want.facts[f].subject),
                  fresh.dict().Term(got.facts[f].subject));
        EXPECT_EQ(full.dict().Term(want.facts[f].predicate),
                  fresh.dict().Term(got.facts[f].predicate));
        EXPECT_EQ(full.dict().Term(want.facts[f].object),
                  fresh.dict().Term(got.facts[f].object));
      }
    }
  }
}

TEST_F(ColumnarSubsetTest, SubsetRequiresSourceIndex) {
  // Random URL order: the writer cannot emit the index, so a subset load
  // must refuse instead of scanning the whole file.
  const ExtractionDump dump = MakeDump(800, 5, /*grouped=*/false);
  store::ColumnarReader reader;
  SaveAndOpen(dump, &reader);
  ASSERT_FALSE(reader.has_source_index());

  web::Corpus subset;
  const Status status =
      LoadColumnarCorpusSubset(&reader, {0}, ColumnarLoadOptions{}, &subset);
  EXPECT_FALSE(status.ok());
}

TEST_F(ColumnarSubsetTest, ParallelLoadBitIdenticalToSerial) {
  const ExtractionDump dump = MakeDump(6000, 47, /*grouped=*/true);
  store::ColumnarReader reader;
  SaveAndOpen(dump, &reader);

  ColumnarLoadOptions serial_options;
  serial_options.threshold = 0.7;
  web::Corpus serial;
  ASSERT_TRUE(
      LoadColumnarCorpusFromReader(&reader, serial_options, &serial).ok());

  for (size_t threads : {2u, 4u, 7u}) {
    // Fresh reader per load: the parallel path must settle lazy
    // verification itself, not inherit the serial load's memoization.
    store::ColumnarReader fresh;
    store::ColumnarReadOptions read_options;
    read_options.lazy_verify = true;
    ASSERT_TRUE(fresh.Open(col_path_, read_options).ok());
    ColumnarLoadOptions options = serial_options;
    options.num_threads = threads;
    web::Corpus parallel;
    ASSERT_TRUE(LoadColumnarCorpusFromReader(&fresh, options, &parallel).ok());
    ExpectDictionariesEqual(serial.dict(), parallel.dict());
    ASSERT_EQ(serial.NumSources(), parallel.NumSources()) << threads;
    ASSERT_EQ(serial.NumFacts(), parallel.NumFacts()) << threads;
    for (size_t s = 0; s < serial.NumSources(); ++s) {
      ExpectSourcesEqual(serial.sources()[s], parallel.sources()[s]);
    }
  }
}

TEST_F(ColumnarSubsetTest, ParallelLoadRemapsSeededDictionaryIdentically) {
  const ExtractionDump dump = MakeDump(3000, 53, /*grouped=*/true);
  store::ColumnarReader reader;
  SaveAndOpen(dump, &reader);

  auto MakeSeeded = [] {
    auto dict = std::make_shared<rdf::Dictionary>();
    dict->Intern("kb-resident-term-a");
    dict->Intern("kb-resident-term-b");
    return dict;
  };
  ColumnarLoadOptions options;
  options.threshold = 0.7;
  options.dict = MakeSeeded();
  web::Corpus serial;
  ASSERT_TRUE(LoadColumnarCorpusFromReader(&reader, options, &serial).ok());
  // Seeded: the residents keep their ids, file codes shift past them.
  EXPECT_EQ(serial.dict().Term(0), "kb-resident-term-a");
  EXPECT_EQ(serial.dict().size(), 2 + reader.num_terms());

  options.dict = MakeSeeded();
  options.num_threads = 4;
  web::Corpus parallel;
  ASSERT_TRUE(LoadColumnarCorpusFromReader(&reader, options, &parallel).ok());
  ExpectDictionariesEqual(serial.dict(), parallel.dict());
  ASSERT_EQ(serial.NumSources(), parallel.NumSources());
  for (size_t s = 0; s < serial.NumSources(); ++s) {
    ExpectSourcesEqual(serial.sources()[s], parallel.sources()[s]);
  }
}

}  // namespace
}  // namespace extract
}  // namespace midas

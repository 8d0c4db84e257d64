// Robustness / fuzz-style tests: random and adversarial inputs through the
// parsers and serializers (nothing may crash; round-trips must be
// lossless), plus framework determinism across thread counts.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/test_dir.h"
#include "midas/core/midas.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/synth/corpus_generator.h"
#include "midas/util/random.h"
#include "midas/util/tsv.h"
#include "midas/web/url.h"

namespace midas {
namespace {

// Random printable-ish string including separators and escapes.
std::string RandomNastyString(Rng* rng, size_t max_len) {
  static const char kAlphabet[] =
      "abcXYZ012 \t\n\r\\\"<>.:/?#@%&=;[]{}()|~^$!*+,'\x7f";
  size_t len = rng->Uniform(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng->Uniform(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

TEST(FuzzTest, UrlParseNeverCrashesAndNormalizeIsIdempotent) {
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    std::string input = RandomNastyString(&rng, 64);
    auto parsed = web::Url::Parse(input);
    if (parsed.ok()) {
      // Normalization must be a fixpoint.
      std::string normalized = parsed->ToString();
      auto again = web::Url::Parse(normalized);
      ASSERT_TRUE(again.ok()) << normalized;
      EXPECT_EQ(again->ToString(), normalized);
      // Depth helpers agree with the parsed form.
      EXPECT_EQ(web::UrlDepth(normalized), parsed->depth());
    }
  }
}

TEST(FuzzTest, ParentUrlStringTerminates) {
  Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    std::string url = RandomNastyString(&rng, 48);
    // Walking parents must reach a fixpoint in bounded steps.
    int steps = 0;
    std::string current = url;
    while (steps < 100) {
      std::string parent = web::ParentUrlString(current);
      if (parent == current) break;
      current = parent;
      ++steps;
    }
    EXPECT_LT(steps, 100) << url;
  }
}

// The rows TsvReadFile yields for `path`.
std::vector<std::vector<std::string>> ReadTsvRows(const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  const Status s =
      TsvReadFile(path, [&](size_t, const std::vector<std::string>& f) {
        rows.push_back(f);
        return Status::OK();
      });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return rows;
}

// Each row leads with its index. TsvReadFile skips blank lines and lines
// that start with '#', and TsvAppendRow does not escape a leading '#', so
// a random first field that is empty or starts with '#' would not come
// back; these tests check the field escapes, not that gap.
TEST(FuzzTest, TsvEscapeRoundTripsArbitraryStrings) {
  Rng rng(3);
  std::vector<std::vector<std::string>> rows;
  std::string contents;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({std::to_string(i), RandomNastyString(&rng, 32)});
    std::string row;
    TsvAppendRow({rows.back()[0], rows.back()[1]}, &row);
    // The only raw tab is the separator, the only raw newline the end.
    EXPECT_EQ(row.find('\t'), rows.back()[0].size());
    EXPECT_EQ(row.find('\t', rows.back()[0].size() + 1), std::string::npos);
    EXPECT_EQ(row.find('\n'), row.size() - 1);
    contents += row;
  }
  const std::string path = tests::TestDir() + "/escape.tsv";
  ASSERT_TRUE(TsvWriteFile(path, contents).ok());
  EXPECT_EQ(ReadTsvRows(path), rows);
}

TEST(FuzzTest, TsvRowRoundTripsArbitraryFields) {
  Rng rng(4);
  std::vector<std::vector<std::string>> rows;
  std::string contents;
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::string> f = {std::to_string(i)};
    size_t n = 1 + rng.Uniform(5);
    for (size_t k = 0; k < n; ++k) f.push_back(RandomNastyString(&rng, 24));
    switch (n) {  // TsvAppendRow takes a fixed-width initializer list
      case 1:
        TsvAppendRow({f[0], f[1]}, &contents);
        break;
      case 2:
        TsvAppendRow({f[0], f[1], f[2]}, &contents);
        break;
      case 3:
        TsvAppendRow({f[0], f[1], f[2], f[3]}, &contents);
        break;
      case 4:
        TsvAppendRow({f[0], f[1], f[2], f[3], f[4]}, &contents);
        break;
      default:
        TsvAppendRow({f[0], f[1], f[2], f[3], f[4], f[5]}, &contents);
    }
    rows.push_back(std::move(f));
  }
  const std::string path = tests::TestDir() + "/rows.tsv";
  ASSERT_TRUE(TsvWriteFile(path, contents).ok());
  EXPECT_EQ(ReadTsvRows(path), rows);
}

TEST(FuzzTest, CorpusAcceptsGarbageUrlsAndTerms) {
  Rng rng(7);
  auto dict = std::make_shared<rdf::Dictionary>();
  web::Corpus corpus(dict);
  rdf::KnowledgeBase kb(dict);
  for (int i = 0; i < 2000; ++i) {
    corpus.AddFactRaw(RandomNastyString(&rng, 40),
                      RandomNastyString(&rng, 16),
                      RandomNastyString(&rng, 16),
                      RandomNastyString(&rng, 16));
  }
  // The full pipeline must survive whatever the corpus now contains.
  core::Midas midas;
  auto result = midas.DiscoverSlices(corpus, kb);
  (void)result;
  SUCCEED();
}

TEST(DeterminismTest, FrameworkResultsIndependentOfThreadCount) {
  auto params = synth::SlimParams(/*open_ie=*/false, 30, /*seed=*/77);
  auto data = synth::GenerateCorpus(params);

  core::MidasOptions options;
  core::MidasAlg alg(options);

  auto run = [&](size_t threads) {
    core::FrameworkOptions fw;
    fw.num_threads = threads;
    core::MidasFramework framework(&alg, fw);
    return framework.Run(*data.corpus, *data.kb);
  };

  auto one = run(1);
  auto many = run(8);
  ASSERT_EQ(one.slices.size(), many.slices.size());
  for (size_t i = 0; i < one.slices.size(); ++i) {
    EXPECT_EQ(one.slices[i].source_url, many.slices[i].source_url);
    EXPECT_EQ(one.slices[i].entities, many.slices[i].entities);
    EXPECT_DOUBLE_EQ(one.slices[i].profit, many.slices[i].profit);
  }
}

}  // namespace
}  // namespace midas

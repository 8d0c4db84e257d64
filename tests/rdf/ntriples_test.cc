// The 3-column TSV fact format of `midas generate --kb` and
// `midas discover --kb`: a lossless round trip, and a row of the wrong
// width rejected as Corruption.

#include "midas/rdf/ntriples.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/test_dir.h"

namespace midas {
namespace rdf {
namespace {

class NTriplesFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = tests::TestDir() + "/facts.tsv";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(NTriplesFileTest, TsvFactsRoundTrip) {
  Dictionary dict;
  std::vector<Triple> triples = {
      Triple(dict.Intern("s1"), dict.Intern("p"), dict.Intern("o with space")),
  };
  ASSERT_TRUE(SaveTsvFacts(path_, dict, triples).ok());
  Dictionary dict2;
  std::vector<Triple> loaded;
  ASSERT_TRUE(LoadTsvFacts(path_, &dict2, &loaded).ok());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(dict2.Term(loaded[0].object), "o with space");
}

TEST_F(NTriplesFileTest, TsvFactsRejectWrongColumnCount) {
  {
    std::ofstream out(path_);
    out << "a\tb\n";
  }
  Dictionary dict;
  std::vector<Triple> loaded;
  EXPECT_EQ(LoadTsvFacts(path_, &dict, &loaded).code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace rdf
}  // namespace midas

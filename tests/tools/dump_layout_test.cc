// Metamorphic check of `midas discover` against the dump's layout: the same
// records as a TSV dump, its columnar conversion, a source-round-robin
// interleaving of it, and `convert --reindex` of that interleaving must give
// byte-identical `discover --json` reports (minus the wall-clock line) and
// `--out` slice files for every method, in process and with workers. The
// interleaving keeps the order in which sources and terms first appear and
// each source's record order; shuffles that move first appearances still
// change output and are not covered here.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli_helpers.h"
#include "common/dump_layouts.h"
#include "common/test_dir.h"
#include "midas/baselines/methods.h"
#include "midas/extract/columnar_io.h"
#include "midas/extract/dump_io.h"
#include "tools/commands.h"

namespace midas {
namespace tools {
namespace {

using tests::ParseInto;
using tests::ReadAll;

struct Output {
  std::string json;    // without the "seconds" line
  std::string slices;  // the --out file
};

class DumpLayoutMetamorphicTest : public ::testing::Test {
 protected:
  // TestDir() is private to the test case and removed at exit.
  static std::string Path(const std::string& name) {
    return tests::TestDir() + "/" + name;
  }

  // Generates `dataset` and writes its four dump layouts; returns their
  // paths, the TSV first.
  std::vector<std::string> MakeDumps(const std::string& dataset) {
    const std::string tsv = Path(dataset + ".tsv");
    kb_ = Path(dataset + "_kb.tsv");
    {
      FlagParser flags;
      RegisterGenerateFlags(&flags);
      EXPECT_TRUE(ParseInto(&flags, {"--dataset=" + dataset, "--scale=0.05",
                                     "--seed=42", "--dump=" + tsv,
                                     "--kb=" + kb_})
                      .ok());
      std::ostringstream out;
      const Status status = RunGenerate(flags, out);
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    const std::string columnar = Path(dataset + ".midascol");
    Convert({"--in=" + tsv, "--out=" + columnar});
    const std::string round_robin = Path(dataset + "_rr.midascol");
    WriteRoundRobin(tsv, round_robin);
    const std::string reindexed = Path(dataset + "_reindexed.midascol");
    Convert({"--in=" + round_robin, "--out=" + reindexed, "--to=columnar",
             "--reindex"});
    return {tsv, columnar, round_robin, reindexed};
  }

  Output Discover(const std::string& dump, const std::string& method,
                  const std::vector<std::string>& extra = {}) {
    const std::string slices = Path("slices.tsv");
    FlagParser flags;
    RegisterDiscoverFlags(&flags);
    std::vector<std::string> args = {"--dump=" + dump, "--kb=" + kb_,
                                     "--method=" + method, "--json",
                                     "--out=" + slices};
    args.insert(args.end(), extra.begin(), extra.end());
    EXPECT_TRUE(ParseInto(&flags, args).ok());
    std::ostringstream out;
    const Status status = RunDiscover(flags, out);
    EXPECT_TRUE(status.ok()) << dump << " " << method << ": "
                             << status.ToString();
    Output result{DropSeconds(out.str()), ReadAll(slices)};
    std::remove(slices.c_str());
    return result;
  }

  // Every method's output over each layout of `dataset` equals its output
  // over the TSV dump.
  void ExpectEveryMethodLayoutIndependent(const std::string& dataset) {
    const std::vector<std::string> dumps = MakeDumps(dataset);
    for (const baselines::Method& method : baselines::Methods()) {
      const Output expected = Discover(dumps[0], method.token);
      for (size_t d = 1; d < dumps.size(); ++d) {
        ExpectSameOutput(expected, Discover(dumps[d], method.token),
                         dumps[d] + " " + method.token);
      }
    }
  }

  static void ExpectSameOutput(const Output& expected, const Output& actual,
                               const std::string& what) {
    ASSERT_FALSE(expected.slices.empty()) << what;
    // Whole-string equality: gtest's diff of two large reports is slow.
    EXPECT_TRUE(expected.json == actual.json) << what;
    EXPECT_TRUE(expected.slices == actual.slices) << what;
  }

 private:
  std::string kb_;

  static void Convert(const std::vector<std::string>& args) {
    FlagParser flags;
    RegisterConvertFlags(&flags);
    ASSERT_TRUE(ParseInto(&flags, args).ok());
    std::ostringstream out;
    const Status status = RunConvert(flags, out);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  // Writes `tsv`'s records dealt round-robin over their sources (see
  // tests::RoundRobin; 0.7 is discover's default threshold) as a columnar
  // file. The columnar file stores the TSV's dictionary in id order, so
  // terms keep their ids too; a TSV copy would renumber them in the new
  // first-appearance order, which still changes output.
  static void WriteRoundRobin(const std::string& tsv,
                              const std::string& out_path) {
    extract::ExtractionDump dump;
    ASSERT_TRUE(extract::LoadDump(tsv, &dump).ok());
    const extract::ExtractionDump dealt = tests::RoundRobin(dump, 0.7);
    ASSERT_NE(dealt.facts[1].url, dump.facts[1].url);
    ASSERT_TRUE(extract::SaveColumnarDump(out_path, dealt).ok());
  }

  static std::string DropSeconds(const std::string& json) {
    std::istringstream in(json);
    std::string out, line;
    while (std::getline(in, line)) {
      if (line.find("\"seconds\"") == std::string::npos) out += line + '\n';
    }
    return out;
  }
};

TEST_F(DumpLayoutMetamorphicTest, NellOutputIsIndependentOfDumpLayout) {
  ExpectEveryMethodLayoutIndependent("nell");
}

TEST_F(DumpLayoutMetamorphicTest, ReverbOutputIsIndependentOfDumpLayout) {
  ExpectEveryMethodLayoutIndependent("reverb");
}

// The dist path names shards by corpus source id, so it too must see one
// corpus whatever the layout.
TEST_F(DumpLayoutMetamorphicTest, WorkersMatchAcrossDumpLayouts) {
  const std::vector<std::string> dumps = MakeDumps("nell");
  const Output expected = Discover(dumps[0], "midas");
  for (size_t d = 1; d < dumps.size(); ++d) {
    ExpectSameOutput(expected, Discover(dumps[d], "midas", {"--workers=2"}),
                     dumps[d] + " --workers=2");
  }
}

}  // namespace
}  // namespace tools
}  // namespace midas

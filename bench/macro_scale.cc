// Paper-scale macro benchmark of the data path (BENCH_macro.json): streams
// a synthetic corpus of N facts straight into a MIDASCOL1 columnar file,
// then times
//   MacroGenerate/N      — streaming generation + columnar write,
//   MacroColumnarLoad/N  — columnar file -> confidence-filtered Corpus,
//   MacroTsvLoad/N       — the same corpus through the TSV dump parser
//                          (LoadDump + BuildCorpus), for the speedup claim,
//   MacroDiscover/N      — end-to-end MIDAS discovery over the corpus.
// Emits a google-benchmark-schema JSON artifact (--json or the
// MIDAS_BENCH_JSON environment variable) so scripts/compare_bench.py can
// gate regressions against the committed baseline. The committed
// BENCH_macro.json covers 1M and 10M facts; 100M fits the same flags
// (--facts 100000000 --tsv_max 0) on a machine with enough disk.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "midas/core/framework.h"
#include "midas/core/midas_alg.h"
#include "midas/extract/columnar_io.h"
#include "midas/extract/dump_io.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/synth/corpus_generator.h"
#include "midas/util/flags.h"
#include "midas/util/json.h"
#include "midas/util/status.h"
#include "midas/util/string_util.h"
#include "midas/web/web_source.h"

namespace midas {
namespace {

/// One timed phase: wall time from steady_clock, CPU time from clock().
class PhaseTimer {
 public:
  PhaseTimer() { Restart(); }
  void Restart() {
    wall_start_ = std::chrono::steady_clock::now();
    cpu_start_ = std::clock();
  }
  double WallMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - wall_start_)
        .count();
  }
  double CpuMs() const {
    return 1000.0 * static_cast<double>(std::clock() - cpu_start_) /
           CLOCKS_PER_SEC;
  }

 private:
  std::chrono::steady_clock::time_point wall_start_;
  std::clock_t cpu_start_;
};

struct BenchRow {
  std::string name;
  double real_ms = 0;
  double cpu_ms = 0;
  std::vector<std::pair<std::string, double>> counters;
  /// Threads the timed phase ran on.
  size_t threads = 1;
};

/// Logical CPUs of the machine; a hardware-default thread count resolves
/// to this, and the artifact's context records it.
size_t NumCpus() { return std::max(1u, std::thread::hardware_concurrency()); }

JsonValue RowToJson(const BenchRow& row) {
  JsonValue r = JsonValue::Object();
  r.Set("name", JsonValue::Str(row.name));
  r.Set("run_name", JsonValue::Str(row.name));
  r.Set("run_type", JsonValue::Str("iteration"));
  r.Set("repetitions", JsonValue::Int(1));
  r.Set("repetition_index", JsonValue::Int(0));
  r.Set("threads", JsonValue::Int(static_cast<int64_t>(row.threads)));
  r.Set("iterations", JsonValue::Int(1));
  r.Set("real_time", JsonValue::Number(row.real_ms));
  r.Set("cpu_time", JsonValue::Number(row.cpu_ms));
  r.Set("time_unit", JsonValue::Str("ms"));
  for (const auto& [key, value] : row.counters) {
    r.Set(key, JsonValue::Number(value));
  }
  return r;
}

/// Matches google-benchmark's context.library_build_type, which the bench
/// runner scripts use to refuse debug-build baselines.
const char* BuildType() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

std::string Iso8601Now() {
  char buf[64];
  std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%S+00:00", &tm_utc);
  return buf;
}

Status WriteJsonArtifact(
    const std::string& path, const std::vector<BenchRow>& rows,
    const std::vector<std::pair<std::string, uint64_t>>& fingerprints) {
  JsonValue doc = JsonValue::Object();
  JsonValue context = JsonValue::Object();
  context.Set("date", JsonValue::Str(Iso8601Now()));
  context.Set("executable", JsonValue::Str("macro_scale"));
  context.Set("library_build_type", JsonValue::Str(BuildType()));
  context.Set("num_cpus", JsonValue::Int(static_cast<int64_t>(NumCpus())));
  // The content hash of each generated corpus file, keyed by size: two
  // artifacts with equal hashes measured byte-identical inputs, so their
  // load times are comparable; differing hashes explain a shifted baseline.
  JsonValue hashes = JsonValue::Object();
  for (const auto& [size, hash] : fingerprints) {
    hashes.Set(size, JsonValue::Str(StringPrintf("%016llx",
                                                 static_cast<unsigned long long>(hash))));
  }
  context.Set("corpus_fingerprints", std::move(hashes));
  doc.Set("context", std::move(context));
  JsonValue benchmarks = JsonValue::Array();
  for (const BenchRow& row : rows) benchmarks.Append(RowToJson(row));
  doc.Set("benchmarks", std::move(benchmarks));
  std::ofstream out(path);
  out << doc.Dump(2) << "\n";
  if (!out) return Status::IoError("cannot write " + path);
  return Status::OK();
}

/// Corpus shape for the macro runs: ClosedIE with meatier pages than the
/// figure harnesses, so generation keeps up with the 10^7-10^8 record
/// targets (the generator, not the store, would otherwise dominate).
synth::CorpusGenParams MacroParams(uint64_t seed) {
  synth::CorpusGenParams p;
  p.mode = synth::CorpusMode::kClosedIe;
  p.num_verticals = 12;
  p.sections_per_domain = 2;
  p.pages_per_section = 8;
  p.entities_per_page = 6;
  p.noisy_domain_fraction = 0.3;
  p.extractor.recall = 0.7;
  p.confidence_threshold = 0.7;
  p.seed = seed;
  return p;
}

Status RunScale(uint64_t num_facts, const FlagParser& flags,
                const std::filesystem::path& workdir,
                std::vector<BenchRow>* rows,
                std::vector<std::pair<std::string, uint64_t>>* fingerprints) {
  const std::string suffix = StringPrintf("%llu", static_cast<unsigned long long>(num_facts));
  const std::string col_path = (workdir / ("corpus_" + suffix + ".midascol")).string();
  const std::string tsv_path = (workdir / ("corpus_" + suffix + ".tsv")).string();

  // --- Generate: stream straight to the columnar file. ------------------
  PhaseTimer timer;
  synth::StreamedCorpusStats gen_stats;
  MIDAS_RETURN_IF_ERROR(synth::StreamCorpusToColumnar(
      MacroParams(static_cast<uint64_t>(flags.GetInt64("seed"))), num_facts,
      col_path, &gen_stats));
  BenchRow gen_row{"MacroGenerate/" + suffix, timer.WallMs(), timer.CpuMs(), {}};
  gen_row.counters.emplace_back("records",
                                static_cast<double>(gen_stats.records_written));
  gen_row.counters.emplace_back("sources",
                                static_cast<double>(gen_stats.num_sources));
  std::cout << gen_row.name << ": " << gen_stats.records_written
            << " records over " << gen_stats.num_sources << " sources in "
            << FormatDouble(gen_row.real_ms / 1000.0, 2) << "s\n";
  rows->push_back(std::move(gen_row));

  // --- Columnar load: file -> filtered Corpus. --------------------------
  // Both load phases report the best of --load_reps runs: on shared or
  // single-core machines one scheduling hiccup otherwise swings the
  // speedup ratio by 20%+, and min-of-N is the least-noise estimator of
  // the code's actual cost.
  const int64_t load_reps = std::max<int64_t>(1, flags.GetInt64("load_reps"));
  const double threshold = flags.GetDouble("threshold");
  web::Corpus corpus;
  uint64_t fingerprint = 0;
  double col_wall_ms = 0, col_cpu_ms = 0;
  for (int64_t rep = 0; rep < load_reps; ++rep) {
    timer.Restart();
    MIDAS_RETURN_IF_ERROR(extract::LoadColumnarCorpus(
        col_path, threshold, /*dict=*/nullptr, &corpus, &fingerprint));
    if (rep == 0 || timer.WallMs() < col_wall_ms) {
      col_wall_ms = timer.WallMs();
      col_cpu_ms = timer.CpuMs();
    }
  }
  BenchRow col_row{"MacroColumnarLoad/" + suffix, col_wall_ms, col_cpu_ms, {}};
  const double columnar_ms = col_row.real_ms;
  fingerprints->emplace_back(suffix, fingerprint);
  col_row.counters.emplace_back("corpus_facts",
                                static_cast<double>(corpus.NumFacts()));
  col_row.counters.emplace_back("corpus_sources",
                                static_cast<double>(corpus.NumSources()));
  std::cout << col_row.name << ": " << corpus.NumFacts() << " facts over "
            << corpus.NumSources() << " sources in "
            << FormatDouble(columnar_ms / 1000.0, 3) << "s\n";
  rows->push_back(std::move(col_row));

  // --- TSV comparison load (the format the seed repo shipped). ----------
  const uint64_t tsv_max = static_cast<uint64_t>(flags.GetInt64("tsv_max"));
  if (num_facts <= tsv_max) {
    {
      extract::ExtractionDump dump;
      MIDAS_RETURN_IF_ERROR(
          extract::LoadDump(col_path, extract::LoadOptions{}, &dump, nullptr));
      MIDAS_RETURN_IF_ERROR(extract::SaveDump(tsv_path, dump));
    }
    web::Corpus tsv_corpus;
    double tsv_wall_ms = 0, tsv_cpu_ms = 0;
    for (int64_t rep = 0; rep < load_reps; ++rep) {
      extract::ExtractionDump dump;
      timer.Restart();
      MIDAS_RETURN_IF_ERROR(
          extract::LoadDump(tsv_path, extract::LoadOptions{}, &dump, nullptr));
      tsv_corpus = extract::BuildCorpus(dump, threshold);
      if (rep == 0 || timer.WallMs() < tsv_wall_ms) {
        tsv_wall_ms = timer.WallMs();
        tsv_cpu_ms = timer.CpuMs();
      }
    }
    BenchRow tsv_row{"MacroTsvLoad/" + suffix, tsv_wall_ms, tsv_cpu_ms, {}};
    const double speedup =
        columnar_ms > 0 ? tsv_row.real_ms / columnar_ms : 0.0;
    tsv_row.counters.emplace_back("columnar_speedup", speedup);
    std::cout << tsv_row.name << ": " << tsv_corpus.NumFacts()
              << " facts in " << FormatDouble(tsv_row.real_ms / 1000.0, 3)
              << "s (columnar is " << FormatDouble(speedup, 1)
              << "x faster)\n";
    // The TSV format quantizes confidence to 4 decimals, so records whose
    // confidence sits within 5e-5 of the threshold can fall out of the
    // round-tripped corpus. Anything beyond that sliver is a real bug
    // (exact parity on TSV-origin data is pinned by the roundtrip tests).
    const double drift =
        static_cast<double>(corpus.NumFacts() - tsv_corpus.NumFacts()) /
        static_cast<double>(corpus.NumFacts());
    if (tsv_corpus.NumFacts() > corpus.NumFacts() || drift > 1e-3) {
      return Status::Internal(
          "TSV and columnar loads disagree on the corpus shape");
    }
    rows->push_back(std::move(tsv_row));
    std::remove(tsv_path.c_str());
    const double min_speedup = flags.GetDouble("min_speedup");
    if (min_speedup > 0 && speedup < min_speedup) {
      return Status::Internal(StringPrintf(
          "columnar load speedup %.1fx below the required %.1fx", speedup,
          min_speedup));
    }
  }

  // --- End-to-end discovery. --------------------------------------------
  const uint64_t discover_max =
      static_cast<uint64_t>(flags.GetInt64("discover_max"));
  if (num_facts <= discover_max) {
    rdf::KnowledgeBase kb(corpus.shared_dict());
    core::MidasOptions options;
    core::MidasAlg detector(options);
    size_t threads = static_cast<size_t>(flags.GetInt64("threads"));
    if (threads == 0) threads = NumCpus();
    core::FrameworkOptions framework_options;
    framework_options.num_threads = threads;
    core::MidasFramework framework(&detector, framework_options);
    timer.Restart();
    auto result = framework.Run(corpus, kb);
    BenchRow disc_row{"MacroDiscover/" + suffix, timer.WallMs(),
                      timer.CpuMs(), {}, threads};
    disc_row.counters.emplace_back("slices",
                                   static_cast<double>(result.slices.size()));
    disc_row.counters.emplace_back(
        "detector_calls", static_cast<double>(result.stats.detector_calls));
    std::cout << disc_row.name << ": " << result.slices.size()
              << " slices in " << FormatDouble(disc_row.real_ms / 1000.0, 2)
              << "s (" << result.stats.detector_calls << " detector calls)\n";
    rows->push_back(std::move(disc_row));
  }

  if (!flags.GetBool("keep")) std::remove(col_path.c_str());
  return Status::OK();
}

Status Run(const FlagParser& flags) {
  std::vector<uint64_t> sizes;
  for (std::string_view token : SplitSkipEmpty(flags.GetString("facts"), ',')) {
    uint64_t n = 0;
    for (char c : token) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("bad --facts entry: " +
                                       std::string(token));
      }
      n = n * 10 + static_cast<uint64_t>(c - '0');
    }
    if (n == 0) return Status::InvalidArgument("--facts entries must be > 0");
    sizes.push_back(n);
  }
  if (sizes.empty()) {
    return Status::InvalidArgument("--facts must list at least one size");
  }

  std::filesystem::path workdir(flags.GetString("workdir"));
  std::error_code ec;
  std::filesystem::create_directories(workdir, ec);
  if (ec) {
    return Status::IoError("cannot create workdir " + workdir.string() + ": " +
                           ec.message());
  }

  std::vector<BenchRow> rows;
  std::vector<std::pair<std::string, uint64_t>> fingerprints;
  for (uint64_t n : sizes) {
    MIDAS_RETURN_IF_ERROR(RunScale(n, flags, workdir, &rows, &fingerprints));
  }

  std::string json_path = flags.GetString("json");
  if (json_path.empty()) {
    const char* env = std::getenv("MIDAS_BENCH_JSON");
    if (env != nullptr) json_path = env;
  }
  if (!json_path.empty()) {
    MIDAS_RETURN_IF_ERROR(WriteJsonArtifact(json_path, rows, fingerprints));
    std::cout << "wrote " << json_path << "\n";
  }
  return Status::OK();
}

}  // namespace
}  // namespace midas

int main(int argc, char** argv) {
  using namespace midas;
  if (!bench::CheckReleaseBuild(argv[0])) return 1;
  FlagParser flags;
  flags.AddString("facts", "1000000",
                  "comma-separated corpus sizes (post-threshold records)");
  flags.AddString("workdir", "macro_scale_work",
                  "directory for generated corpus files");
  flags.AddString("json", "",
                  "write the google-benchmark JSON artifact here (also "
                  "honors MIDAS_BENCH_JSON)");
  flags.AddInt64("tsv_max", 10000000,
                 "skip the TSV comparison load above this many facts");
  flags.AddInt64("discover_max", 10000000,
                 "skip end-to-end discovery above this many facts");
  flags.AddDouble("threshold", 0.7, "confidence threshold");
  flags.AddInt64("load_reps", 3,
                 "repetitions per load phase; the best rep is reported");
  flags.AddDouble("min_speedup", 0.0,
                  "fail unless columnar load is at least this many times "
                  "faster than the TSV parse (0 = report only)");
  flags.AddInt64("threads", 0, "framework threads (0 = hardware)");
  flags.AddInt64("seed", 42, "generator seed");
  flags.AddBool("keep", false, "keep the generated corpus files");
  Status parse = flags.Parse(argc, argv);
  if (!parse.ok()) {
    std::cerr << parse.ToString() << "\n" << flags.Usage("macro_scale");
    return 2;
  }
  Status status = Run(flags);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

// midas_bench: the repository's end-to-end benchmark (see README.md).
//
// One invocation runs one workload. It generates the workload's inputs
// from --seed, drives the `midas` CLI (discover, serve, discover --workers)
// as child processes for --seconds, checks every output against an
// in-process reference run, and prints as its last stdout line
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, timed from outside the
// child processes with nothing traced anywhere. With --trace 1 they are the
// per-layer set: the same operations with client-side spans, plus an
// in-process profile of the layers (layers.h); --trace_out also writes the
// spans as a Chrome trace.

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "layers.h"
#include "midas/core/framework.h"
#include "midas/extract/columnar_io.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/synth/corpus_generator.h"
#include "midas/util/flags.h"
#include "midas/util/hash.h"
#include "midas/util/json.h"
#include "midas/util/random.h"
#include "midas/util/string_util.h"
#include "process.h"

namespace midas {
namespace perfbench {
namespace {

constexpr double kThreshold = 0.7;    // the CLI's confidence threshold
constexpr int kSetupReps = 5;         // setup_s is the median of these
constexpr size_t kMinSamples = 3;     // operations measured even past --seconds
constexpr int kOpTimeoutMs = 120000;  // one CLI run or HTTP request
constexpr int64_t kTopK = 20;         // /discover's default page
constexpr size_t kIngestEntities = 2;
constexpr size_t kFactsPerEntity = 4;  // 8 facts per ingest
constexpr size_t kSpanCapacity = size_t{1} << 19;
/// ClosedIE corpus size: the largest that fits every workload's runs in the
/// benchmark's time budget.
constexpr uint64_t kClosedIeFacts = 200000;
/// `midas generate --dataset reverb --scale` giving about as many facts.
constexpr const char* kReverbScale = "1.6";

enum class Kind { kBatch, kServeIngest, kServeCached, kDist };

struct Workload {
  const char* name;
  Kind kind;
  bool openie_kb;
};

// Why each workload exists is in README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"batch_closedie", Kind::kBatch, false},
    {"batch_openie_kb", Kind::kBatch, true},
    {"serve_ingest", Kind::kServeIngest, false},
    {"serve_cached", Kind::kServeCached, false},
    {"dist_workers2", Kind::kDist, false},
};

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string midas;
  std::string workdir;
  std::string trace_out;
};

/// The ClosedIE corpus shape of bench/macro_scale.cc (MacroParams), with
/// more verticals. The generator draws each vertical's ontology from the
/// seed, and with 12 verticals that one draw moves the whole corpus's
/// detection work by about 10% between seeds (interquartile range of
/// hierarchy nodes over ten seeds: 9.5%); with 768 it moves it by 2%, at
/// the same median work, so a run's numbers follow the code, not the seed.
synth::CorpusGenParams ClosedIeParams(uint64_t seed) {
  synth::CorpusGenParams p;
  p.mode = synth::CorpusMode::kClosedIe;
  p.num_verticals = 768;
  p.sections_per_domain = 2;
  p.pages_per_section = 8;
  p.entities_per_page = 6;
  p.noisy_domain_fraction = 0.3;
  p.extractor.recall = 0.7;
  p.confidence_threshold = kThreshold;
  p.seed = seed;
  return p;
}

size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

Status ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return Status::OK();
}

/// The end of a child's stderr log, for error messages (the work directory
/// is removed when the run ends).
std::string LogTail(const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text).ok()) return "";
  constexpr size_t kTail = 600;
  return text.size() > kTail ? text.substr(text.size() - kTail) : text;
}

/// Order-sensitive digest of a ranking over what its reader sees: source
/// URL, property terms, num_facts, num_new_facts and profit (exact).
class SliceDigest {
 public:
  void Add(std::string_view url,
           const std::vector<std::pair<std::string, std::string>>& properties,
           int64_t num_facts, int64_t num_new_facts, double profit) {
    std::string line(url);
    for (const auto& [predicate, value] : properties) {
      line += '\x1f';
      line += predicate;
      line += '=';
      line += value;
    }
    line += StringPrintf("\x1e%lld\x1e%lld\x1e%.17g",
                         static_cast<long long>(num_facts),
                         static_cast<long long>(num_new_facts), profit);
    hash_ = HashCombine(hash_, Fnv1a64(line));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0;
};

/// Digest of the first `limit` slices of an in-process result.
uint64_t DigestResult(const core::FrameworkResult& result,
                      const rdf::Dictionary& dict, size_t limit) {
  SliceDigest digest;
  for (size_t i = 0; i < result.slices.size() && i < limit; ++i) {
    const core::DiscoveredSlice& s = result.slices[i];
    std::vector<std::pair<std::string, std::string>> properties;
    for (const core::PropertyPair& p : s.properties) {
      properties.emplace_back(dict.Term(p.predicate), dict.Term(p.value));
    }
    digest.Add(s.source_url, properties, static_cast<int64_t>(s.num_facts),
               static_cast<int64_t>(s.num_new_facts), s.profit);
  }
  return digest.value();
}

/// Digest of a JSON "slices" array (`discover --json`, `/discover`).
Status DigestJson(const JsonValue* slices, uint64_t* out) {
  if (slices == nullptr || !slices->IsArray()) {
    return Status::Corruption("no slices array");
  }
  SliceDigest digest;
  for (size_t i = 0; i < slices->size(); ++i) {
    const JsonValue& row = slices->at(i);
    const JsonValue* url = row.Get("source_url");
    const JsonValue* props = row.Get("properties");
    const JsonValue* facts = row.Get("num_facts");
    const JsonValue* fresh = row.Get("num_new_facts");
    const JsonValue* profit = row.Get("profit");
    if (url == nullptr || props == nullptr || !props->IsArray() ||
        facts == nullptr || fresh == nullptr || profit == nullptr) {
      return Status::Corruption(StringPrintf("slice %zu is incomplete", i));
    }
    std::vector<std::pair<std::string, std::string>> properties;
    for (size_t j = 0; j < props->size(); ++j) {
      const JsonValue* predicate = props->at(j).Get("predicate");
      const JsonValue* value = props->at(j).Get("value");
      if (predicate == nullptr || value == nullptr) {
        return Status::Corruption(StringPrintf("slice %zu property %zu", i, j));
      }
      properties.emplace_back(predicate->AsString(), value->AsString());
    }
    digest.Add(url->AsString(), properties, facts->AsInt(), fresh->AsInt(),
               profit->AsDouble());
  }
  *out = digest.value();
  return Status::OK();
}

/// What a `midas discover --json` run reported.
struct DiscoverOutput {
  uint64_t digest = 0;
  double framework_s = 0;
  int64_t corpus_facts = 0;
};

/// Parses `discover --json` output and checks the run completed: not
/// partial, no failed shard, every source "ok" or "no_slices".
Status ParseDiscover(const std::string& text, DiscoverOutput* out) {
  JsonValue report;
  MIDAS_RETURN_IF_ERROR(JsonValue::Parse(text, &report));
  const JsonValue* partial = report.Get("partial");
  const JsonValue* failed = report.Get("shards_failed");
  const JsonValue* sources = report.Get("sources");
  const JsonValue* seconds = report.Get("seconds");
  const JsonValue* facts = report.Get("corpus_facts");
  if (partial == nullptr || partial->AsBool(true) || failed == nullptr ||
      failed->AsInt(1) != 0 || sources == nullptr || !sources->IsArray() ||
      seconds == nullptr || facts == nullptr) {
    return Status::Corruption("report is partial or incomplete");
  }
  for (size_t i = 0; i < sources->size(); ++i) {
    const JsonValue* status = sources->at(i).Get("status");
    const std::string name = status == nullptr ? "" : status->AsString();
    if (name != "ok" && name != "no_slices") {
      return Status::Corruption("source status '" + name + "'");
    }
  }
  out->framework_s = seconds->AsDouble();
  out->corpus_facts = facts->AsInt();
  return DigestJson(report.Get("slices"), &out->digest);
}

/// Loads a workload's inputs the way `midas discover` does: the columnar
/// dump onto a fresh dictionary, then the KB (if any) into it.
Status LoadInputs(const std::string& dump, const std::string& kb_path,
                  web::Corpus* corpus,
                  std::unique_ptr<rdf::KnowledgeBase>* kb) {
  uint64_t fingerprint = 0;
  MIDAS_RETURN_IF_ERROR(extract::LoadColumnarCorpus(
      dump, kThreshold, /*dict=*/nullptr, corpus, &fingerprint));
  return LoadKb(kb_path, corpus, kb);
}

/// Operation and check accounting, plus the printed result.
class Report {
 public:
  /// One CLI run or HTTP request; `what` names a failure on stderr.
  void Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "failed: " << what << "\n";
    }
  }
  void Check(bool ok, const std::string& name, const std::string& detail) {
    checks_ok_ = checks_ok_ && ok;
    lines_.push_back(StringPrintf("check %s %s %s", name.c_str(),
                                  ok ? "ok" : "FAILED", detail.c_str()));
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  void Info(const std::string& line) { lines_.push_back("info " + line); }

  /// The info and check lines, one line per metric, then the result JSON
  /// as the last line.
  void Print(std::ostream& out) const {
    for (const std::string& line : lines_) out << line << "\n";
    JsonValue metrics = JsonValue::Object();
    for (const Metric& m : metrics_) {
      out << "metric " << m.name << " " << StringPrintf("%.17g", m.value)
          << " " << m.unit << "\n";
      JsonValue entry = JsonValue::Object();
      entry.Set("value", JsonValue::Number(m.value));
      entry.Set("unit", JsonValue::Str(m.unit));
      metrics.Set(m.name, std::move(entry));
    }
    JsonValue result = JsonValue::Object();
    result.Set("correct", JsonValue::Bool(checks_ok_ && failed_ == 0));
    result.Set("attempted", JsonValue::Int(attempted_));
    result.Set("failed", JsonValue::Int(failed_));
    result.Set("metrics", std::move(metrics));
    out << result.Dump() << "\n";
  }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool checks_ok_ = true;
  std::vector<Metric> metrics_;
  std::vector<std::string> lines_;
};

/// One measured operation: a CLI run, an ingest + discover cycle, or a
/// cached /discover.
struct Sample {
  double latency_s = 0;
  /// The program's own time for the work (`seconds` / `stats.seconds`);
  /// 0 for a cache hit, which runs no framework.
  double framework_s = 0;
  double response_bytes = 0;
  double peak_rss_mb = 0;
  double cpu_s = 0;
  double memo_misses = 0;
  bool cache_hit = false;
};

struct DeltaFact {
  std::string url, subject, predicate, object;
};

class Bench {
 public:
  Bench(const Options& options, Report* report)
      : opt_(options),
        kind_(options.workload->kind),
        report_(report),
        nproc_(UsableCpus()),
        threads_(std::min<size_t>(4, nproc_)),
        // Coordinator plus workers stay within the CPUs (the coordinator
        // mostly waits on its sockets).
        workers_(std::max<size_t>(1, std::min<size_t>(2, nproc_ - 1))),
        log_(options.trace ? kSpanCapacity : 0) {
    workdir_ = StringPrintf("%s/%s-%llu-%d", options.workdir.c_str(),
                            options.workload->name,
                            static_cast<unsigned long long>(options.seed),
                            static_cast<int>(::getpid()));
  }

  ~Bench() {
    server_.reset();  // kills and reaps a server still running
    std::error_code ec;
    std::filesystem::remove_all(workdir_, ec);
  }

  Status Run() {
    std::error_code ec;
    std::filesystem::create_directories(workdir_, ec);
    if (ec) return Status::IoError("cannot create " + workdir_);
    report_->Info(StringPrintf(
        "workload=%s seed=%llu trace=%d nproc=%zu threads=%zu workers=%zu",
        opt_.workload->name, static_cast<unsigned long long>(opt_.seed),
        opt_.trace ? 1 : 0, nproc_, threads_,
        kind_ == Kind::kDist ? workers_ : 0));
    MIDAS_RETURN_IF_ERROR(Setup());
    MIDAS_RETURN_IF_ERROR(Reference());
    if (kind_ == Kind::kBatch || kind_ == Kind::kDist) {
      MIDAS_RETURN_IF_ERROR(MeasureCli());
    } else {
      MIDAS_RETURN_IF_ERROR(MeasureServe());
    }
    ReportMetrics();
    if (!opt_.trace_out.empty() && opt_.trace) {
      MIDAS_RETURN_IF_ERROR(log_.WriteChromeTrace(opt_.trace_out));
      report_->Info(StringPrintf("trace_out=%s spans_dropped=%zu",
                                 opt_.trace_out.c_str(), log_.dropped()));
    }
    return Status::OK();
  }

 private:
  std::string Path(std::string_view name) const {
    return workdir_ + "/" + std::string(name);
  }

  bool serve() const {
    return kind_ == Kind::kServeIngest || kind_ == Kind::kServeCached;
  }

  std::vector<std::string> DiscoverArgv(size_t threads) const {
    std::vector<std::string> argv = {opt_.midas, "discover", "--dump", dump_,
                                     "--threads", std::to_string(threads),
                                     "--json"};
    if (!kb_.empty()) {
      argv.push_back("--kb");
      argv.push_back(kb_);
    }
    return argv;
  }

  /// Runs a setup command; a failure ends the run (nothing to measure).
  Status SetupCommand(const std::vector<std::string>& argv) {
    ExitInfo info;
    const Status status =
        RunCommand(argv, Path("setup.out"), Path("setup.log"), kOpTimeoutMs, &info);
    const bool ok = status.ok() && info.exit_code == 0;
    report_->Op(ok, "midas " + argv[1]);
    if (!ok) {
      return Status::Internal(
          "midas " + argv[1] + " failed (" +
          (status.ok() ? StringPrintf("exit %d", info.exit_code)
                       : status.ToString()) +
          "): " + LogTail(Path("setup.log")));
    }
    return Status::OK();
  }

  /// Builds the inputs from the seed: a streamed ClosedIE columnar dump,
  /// or `midas generate` (ReVerb-like with KB) + `midas convert`.
  Status GenerateInputs() {
    if (!opt_.workload->openie_kb) {
      dump_ = Path("closedie.midascol");
      synth::StreamedCorpusStats stats;
      return synth::StreamCorpusToColumnar(ClosedIeParams(opt_.seed),
                                           kClosedIeFacts, dump_, &stats);
    }
    const std::string tsv = Path("reverb.tsv");
    dump_ = Path("reverb.midascol");
    kb_ = Path("reverb_kb.tsv");
    MIDAS_RETURN_IF_ERROR(SetupCommand(
        {opt_.midas, "generate", "--dataset", "reverb", "--scale", kReverbScale,
         "--seed", std::to_string(opt_.seed), "--dump", tsv, "--kb", kb_}));
    return SetupCommand({opt_.midas, "convert", "--in", tsv, "--out", dump_,
                         "--to", "columnar", "--reindex"});
  }

  Status StartServer() {
    server_ = std::make_unique<Child>();
    MIDAS_RETURN_IF_ERROR(server_->Start(
        {opt_.midas, "serve", "--corpus", dump_, "--port", "0", "--threads",
         std::to_string(threads_)},
        /*stdout_path=*/"", Path("serve.log")));
    std::string line;
    MIDAS_RETURN_IF_ERROR(
        server_->ReadLineContaining("listening on", kOpTimeoutMs, &line));
    uint64_t port = 0;
    if (!ParseUint64(line.substr(line.rfind(':') + 1), &port) || port == 0 ||
        port > 65535) {
      return Status::Corruption("cannot parse the port from: " + line);
    }
    port_ = static_cast<uint16_t>(port);
    return Status::OK();
  }

  /// SIGTERM, wait, and check the drain line counts exactly the requests
  /// this benchmark sent. A server that crashed or hung counts as a failed
  /// operation.
  void StopServer(size_t requests_sent, ExitInfo* info) {
    server_->Signal(SIGTERM);
    const Status status = server_->Wait(kOpTimeoutMs, info);
    const std::string rest = server_->ReadRest();
    server_.reset();
    report_->Op(status.ok() && info->exit_code == 0,
                StringPrintf("midas serve exit %d: ", info->exit_code) +
                    status.ToString() + " " + LogTail(Path("serve.log")));
    const std::string expected =
        StringPrintf("drained after %zu request(s)", requests_sent);
    report_->Check(rest.find(expected) != std::string::npos, "serve_drain",
                   expected);
  }

  /// Setup, kSetupReps times (once when traced): the inputs, and for the
  /// serve workloads a server up to its "listening on" line.
  Status Setup() {
    std::vector<double> setup_s;
    const int reps = opt_.trace ? 1 : kSetupReps;
    for (int rep = 0; rep < reps; ++rep) {
      if (server_ != nullptr) {
        ExitInfo info;
        StopServer(0, &info);
      }
      const uint64_t start = NowNs();
      MIDAS_RETURN_IF_ERROR(GenerateInputs());
      if (serve()) MIDAS_RETURN_IF_ERROR(StartServer());
      const uint64_t end = NowNs();
      log_.Record("bench.setup", start, end, rep);
      setup_s.push_back(static_cast<double>(end - start) / 1e9);
    }
    setup_s_ = Percentile(setup_s, 50);
    return Status::OK();
  }

  /// The in-process run every output is checked against: traced through
  /// the layer profile when --trace 1, a plain framework run otherwise.
  Status Reference() {
    web::Corpus corpus;
    core::FrameworkResult result;
    size_t kb_facts = 0;
    if (opt_.trace) {
      LayerInputs inputs;
      inputs.dump_path = dump_;
      inputs.kb_path = kb_;
      inputs.threshold = kThreshold;
      inputs.threads = threads_;
      inputs.use_memo = serve();
      LayerResult layers;
      MIDAS_RETURN_IF_ERROR(
          ProfileLayers(inputs, &log_, &layer_metrics_, &layers));
      corpus = std::move(layers.corpus);
      result = std::move(layers.result);
      kb_facts = layers.kb_facts;
      report_->Info(StringPrintf("replay_shards=%zu", layers.replay_shards));
    } else {
      std::unique_ptr<rdf::KnowledgeBase> kb;
      MIDAS_RETURN_IF_ERROR(LoadInputs(dump_, kb_, &corpus, &kb));
      result = RunDiscovery(corpus, *kb, threads_, /*memo=*/nullptr);
      kb_facts = kb->size();
    }
    ref_digest_ = DigestResult(result, corpus.dict(), result.slices.size());
    ref_top_digest_ =
        DigestResult(result, corpus.dict(), static_cast<size_t>(kTopK));
    ref_facts_ = static_cast<int64_t>(corpus.NumFacts());
    report_->Info(StringPrintf(
        "corpus_facts=%zu corpus_sources=%zu kb_facts=%zu slices=%zu "
        "digest=%016llx",
        corpus.NumFacts(), corpus.NumSources(), kb_facts,
        result.slices.size(), static_cast<unsigned long long>(ref_digest_)));
    if (serve()) base_ = std::make_unique<web::Corpus>(std::move(corpus));
    return Status::OK();
  }

  /// One `midas discover` run; false when it failed or its output differs
  /// from the reference.
  bool RunDiscover(const std::vector<std::string>& argv, int64_t tag,
                   Sample* sample) {
    const std::string out = Path("discover.json");
    ExitInfo info;
    const uint64_t start = NowNs();
    Status status =
        RunCommand(argv, out, Path("discover.log"), kOpTimeoutMs, &info);
    log_.Record("bench.op", start, NowNs(), tag);
    std::string text;
    DiscoverOutput parsed;
    if (status.ok() && info.exit_code != 0) {
      status = Status::Internal(StringPrintf("exit %d: ", info.exit_code) +
                                LogTail(Path("discover.log")));
    }
    if (status.ok()) status = ReadFile(out, &text);
    if (status.ok()) status = ParseDiscover(text, &parsed);
    if (status.ok() &&
        (parsed.digest != ref_digest_ || parsed.corpus_facts != ref_facts_)) {
      status = Status::Corruption("slices differ from the in-process run");
    }
    report_->Op(status.ok(), "midas discover: " + status.ToString());
    if (!status.ok()) return false;
    sample->latency_s = info.wall_s;
    sample->framework_s = parsed.framework_s;
    sample->response_bytes = static_cast<double>(text.size());
    sample->peak_rss_mb = info.peak_rss_mb;
    sample->cpu_s = info.cpu_s;
    return true;
  }

  /// batch_* and dist_workers2: back-to-back CLI runs for --seconds.
  Status MeasureCli() {
    std::vector<std::string> argv = DiscoverArgv(threads_);
    const std::string metrics_path = Path("dist_metrics.json");
    if (kind_ == Kind::kDist) {
      argv = DiscoverArgv(1);
      argv.push_back("--workers");
      argv.push_back(std::to_string(workers_));
      if (opt_.trace) {
        argv.push_back("--metrics_out");
        argv.push_back(metrics_path);
      }
    }
    const uint64_t deadline = NowNs() + SecondsNs();
    for (int64_t i = 0; NowNs() < deadline || samples_.size() < kMinSamples;
         ++i) {
      Sample sample;
      if (RunDiscover(argv, i, &sample)) samples_.push_back(sample);
      if (i >= static_cast<int64_t>(4 * kMinSamples) && samples_.empty()) {
        break;  // every run fails: nothing left to measure
      }
    }
    if (kind_ == Kind::kDist && opt_.trace) {
      MIDAS_RETURN_IF_ERROR(DistLayerMetrics(metrics_path));
    }
    return Status::OK();
  }

  /// dist.* from the last run's --metrics_out counters, and the wall time
  /// against an in-process run with as many threads as workers.
  Status DistLayerMetrics(const std::string& metrics_path) {
    std::string text;
    JsonValue doc;
    MIDAS_RETURN_IF_ERROR(ReadFile(metrics_path, &text));
    MIDAS_RETURN_IF_ERROR(JsonValue::Parse(text, &doc));
    std::map<std::string, double> counters;
    if (const JsonValue* list = doc.Get("counters"); list && list->IsArray()) {
      for (size_t i = 0; i < list->size(); ++i) {
        const JsonValue* name = list->at(i).Get("name");
        const JsonValue* value = list->at(i).Get("value");
        if (name != nullptr && value != nullptr) {
          counters[name->AsString()] = value->AsDouble();
        }
      }
    }
    const double units = counters["dist.results"];
    dist_["dist.units"] = units;
    if (units > 0) {
      dist_["dist.bytes_sent_per_unit"] = counters["dist.bytes_sent"] / units;
      dist_["dist.bytes_received_per_unit"] =
          counters["dist.bytes_received"] / units;
    }
    dist_["dist.reassigns"] = counters["dist.reassigns"];
    dist_["dist.worker_losses"] = counters["dist.worker_losses"];
    std::vector<double> in_process_s;
    for (int64_t i = 0; i < 3; ++i) {
      Sample sample;
      if (RunDiscover(DiscoverArgv(workers_), -1 - i, &sample)) {
        in_process_s.push_back(sample.latency_s);
      }
    }
    const double base = Percentile(in_process_s, 50);
    if (base > 0) {
      dist_["dist.overhead_ratio"] = Percentile(Latencies(), 50) / base;
    }
    return Status::OK();
  }

  /// Facts for one ingest: kIngestEntities new entities, each carrying
  /// kFactsPerEntity (predicate, object) pairs of one seeded-random
  /// existing source, so the delta extends that source's slices.
  std::vector<DeltaFact> MakeDelta(Rng* rng, int64_t cycle) const {
    const web::WebSource& source =
        base_->sources()[rng->Uniform(base_->NumSources())];
    const rdf::Dictionary& dict = base_->dict();
    const size_t n = source.facts.size();
    std::vector<DeltaFact> delta;
    for (size_t e = 0; e < kIngestEntities; ++e) {
      const std::string subject = StringPrintf(
          "perfbench/cycle%lld/entity%zu", static_cast<long long>(cycle), e);
      std::set<std::pair<rdf::TermId, rdf::TermId>> used;
      const size_t start = static_cast<size_t>(rng->Uniform(n));
      for (size_t k = 0; k < n && used.size() < kFactsPerEntity; ++k) {
        const rdf::Triple& t = source.facts[(start + k) % n];
        if (used.emplace(t.predicate, t.object).second) {
          delta.push_back(DeltaFact{source.url, subject,
                                    dict.Term(t.predicate),
                                    dict.Term(t.object)});
        }
      }
    }
    return delta;
  }

  /// One HTTP request, counted as an operation. Transport errors end the
  /// measurement (the server is gone).
  bool Call(std::string_view target, const std::string& body,
            const char* what, HttpReply* reply) {
    const Status status =
        client_->Call("POST", target, body, kOpTimeoutMs, reply);
    if (!status.ok()) {
      connection_lost_ = true;
      report_->Op(false, std::string(what) + ": " + status.ToString());
      return false;
    }
    return true;
  }

  /// POST /discover, checked: 200, the expected cache outcome and a
  /// complete (not partial) run; `parsed` receives the body.
  bool Discover(const std::string& body, const char* expect_cache,
                const char* what, HttpReply* reply, JsonValue* parsed) {
    if (!Call("/discover", body, what, reply)) return false;
    Status status = reply->status == 200
                        ? Status::OK()
                        : Status::Internal(StringPrintf("HTTP %d", reply->status));
    if (status.ok() && reply->cache != expect_cache) {
      status = Status::Internal("X-Midas-Cache: '" + reply->cache +
                                "', expected '" + expect_cache + "'");
    }
    if (status.ok()) status = JsonValue::Parse(reply->body, parsed);
    if (status.ok()) {
      const JsonValue* partial = parsed->Get("partial");
      if (partial == nullptr || partial->AsBool(true)) {
        status = Status::Internal("partial result");
      }
    }
    report_->Op(status.ok(), std::string(what) + ": " + status.ToString());
    return status.ok();
  }

  /// serve_ingest's operation: POST /ingest of one delta, then the
  /// /discover that must re-detect it (a cache miss).
  bool IngestCycle(Rng* rng, int64_t cycle, Sample* sample) {
    const std::vector<DeltaFact> delta = MakeDelta(rng, cycle);
    JsonValue facts = JsonValue::Array();
    for (const DeltaFact& f : delta) {
      JsonValue row = JsonValue::Object();
      row.Set("url", JsonValue::Str(f.url));
      row.Set("subject", JsonValue::Str(f.subject));
      row.Set("predicate", JsonValue::Str(f.predicate));
      row.Set("object", JsonValue::Str(f.object));
      row.Set("confidence", JsonValue::Number(0.95));
      facts.Append(std::move(row));
    }
    JsonValue body = JsonValue::Object();
    body.Set("facts", std::move(facts));

    const uint64_t start = NowNs();
    HttpReply ingest;
    if (!Call("/ingest", body.Dump(), "POST /ingest", &ingest)) return false;
    const uint64_t ingested = NowNs();
    JsonValue ingest_report;
    bool ok = ingest.status == 200 &&
              JsonValue::Parse(ingest.body, &ingest_report).ok() &&
              ingest_report.Get("added") != nullptr &&
              ingest_report.Get("added")->AsInt() ==
                  static_cast<int64_t>(delta.size());
    report_->Op(ok, StringPrintf("POST /ingest (HTTP %d): %s", ingest.status,
                                 ingest.body.c_str()));
    deltas_.insert(deltas_.end(), delta.begin(), delta.end());

    HttpReply reply;
    JsonValue parsed;
    ok = Discover(page_, "miss", "POST /discover after ingest", &reply,
                  &parsed) &&
         ok;
    const uint64_t end = NowNs();
    log_.Record("bench.ingest", start, ingested, cycle);
    log_.Record("bench.discover", ingested, end, cycle);
    log_.Record("bench.op", start, end, cycle);
    const JsonValue* stats = parsed.Get("stats");
    if (!ok || stats == nullptr) return false;
    sample->latency_s = static_cast<double>(end - start) / 1e9;
    const JsonValue* seconds = stats->Get("seconds");
    const JsonValue* misses = stats->Get("memo_misses");
    sample->framework_s = seconds != nullptr ? seconds->AsDouble() : 0;
    sample->memo_misses = misses != nullptr ? misses->AsDouble() : 0;
    sample->response_bytes = static_cast<double>(reply.body.size());
    return true;
  }

  /// serve_cached's operation: the warm /discover again, which must be a
  /// cache hit with a byte-identical body.
  bool CachedDiscover(const std::string& expected_body, int64_t cycle,
                      Sample* sample) {
    const uint64_t start = NowNs();
    HttpReply reply;
    if (!Call("/discover", page_, "cached /discover", &reply)) return false;
    const uint64_t end = NowNs();
    log_.Record("bench.op", start, end, cycle);
    const bool ok = reply.status == 200 && reply.cache == "hit" &&
                    reply.body == expected_body;
    report_->Op(ok, StringPrintf("cached /discover: HTTP %d, X-Midas-Cache "
                                 "'%s', body %s",
                                 reply.status, reply.cache.c_str(),
                                 reply.body == expected_body ? "same" : "differs"));
    if (!ok) return false;
    sample->latency_s = static_cast<double>(end - start) / 1e9;
    sample->response_bytes = static_cast<double>(reply.body.size());
    sample->cache_hit = true;
    return true;
  }

  /// serve_*: a closed loop of one client on one keep-alive connection.
  Status MeasureServe() {
    client_ = std::make_unique<HttpClient>();
    MIDAS_RETURN_IF_ERROR(client_->Connect(port_));
    Rng rng(HashMix(opt_.seed));

    // Warm-up, outside the samples: the cold /discover (its top page must
    // match the reference), then one operation.
    HttpReply cold;
    JsonValue cold_report;
    uint64_t cold_digest = 0;
    const uint64_t cold_start = NowNs();
    const bool cold_ok =
        Discover(page_, "miss", "cold /discover", &cold, &cold_report);
    const double cold_ms = static_cast<double>(NowNs() - cold_start) / 1e6;
    report_->Check(cold_ok && DigestJson(cold_report.Get("slices"),
                                         &cold_digest).ok() &&
                       cold_digest == ref_top_digest_,
                   "serve_cold_top_page",
                   StringPrintf("cold /discover (%.1f ms) equals the "
                                "in-process top %lld",
                                cold_ms, static_cast<long long>(kTopK)));
    Sample warm;
    if (kind_ == Kind::kServeIngest) {
      IngestCycle(&rng, -1, &warm);
    } else {
      CachedDiscover(cold.body, -1, &warm);
    }

    const uint64_t deadline = NowNs() + SecondsNs();
    for (int64_t i = 0;
         !connection_lost_ &&
         (NowNs() < deadline || samples_.size() < kMinSamples);
         ++i) {
      Sample sample;
      const bool ok = kind_ == Kind::kServeIngest
                          ? IngestCycle(&rng, i, &sample)
                          : CachedDiscover(cold.body, i, &sample);
      if (ok) samples_.push_back(sample);
      if (i >= static_cast<int64_t>(4 * kMinSamples) && samples_.empty()) {
        break;
      }
    }

    if (kind_ == Kind::kServeIngest && !connection_lost_) {
      CheckIngestedState();
    }
    const size_t sent = client_->requests_sent();
    client_.reset();
    StopServer(sent, &server_info_);
    return Status::OK();
  }

  /// The full ranking after the last ingest equals a cold in-process run
  /// over the base corpus plus the same deltas.
  void CheckIngestedState() {
    HttpReply reply;
    JsonValue parsed;
    uint64_t served = 0;
    const bool ok = Discover("{\"top_k\":0}", "miss", "final /discover",
                             &reply, &parsed) &&
                    DigestJson(parsed.Get("slices"), &served).ok();
    base_->RebuildDedupIndex();
    for (const DeltaFact& f : deltas_) {
      base_->AddFactRaw(f.url, f.subject, f.predicate, f.object);
    }
    const rdf::KnowledgeBase kb(base_->shared_dict());
    const core::FrameworkResult result =
        RunDiscovery(*base_, kb, threads_, /*memo=*/nullptr);
    const uint64_t expected =
        DigestResult(result, base_->dict(), result.slices.size());
    report_->Check(ok && served == expected, "serve_ingested_state",
                   StringPrintf("/discover top_k=0 after %zu ingested facts "
                                "equals a cold in-process run (%zu slices)",
                                deltas_.size(), result.slices.size()));
  }

  uint64_t SecondsNs() const {
    return static_cast<uint64_t>(opt_.seconds * 1e9);
  }

  std::vector<double> Latencies() const {
    std::vector<double> out;
    for (const Sample& s : samples_) out.push_back(s.latency_s);
    return out;
  }

  template <typename Field>
  double Median(Field field) const {
    std::vector<double> values;
    for (const Sample& s : samples_) values.push_back(field(s));
    return Percentile(values, 50);
  }

  void ReportMetrics() {
    const std::vector<double> latency = Latencies();
    report_->Info(StringPrintf("samples=%zu", latency.size()));
    // The highest percentile with at least ten samples beyond it.
    if (latency.size() >= 50) {
      report_->Info(StringPrintf("latency_p80_ms=%.3f",
                                 Percentile(latency, 80) * 1e3));
    }
    double cpu_s = 0, wall_s = 0;
    if (serve()) {
      cpu_s = server_info_.cpu_s;
      wall_s = server_info_.wall_s;
    } else {
      for (const Sample& s : samples_) {
        cpu_s += s.cpu_s;
        wall_s += s.latency_s;
      }
    }
    const double peak_rss_mb =
        serve() ? server_info_.peak_rss_mb
                : Median([](const Sample& s) { return s.peak_rss_mb; });
    if (!opt_.trace) {
      report_->Add("latency_p50_ms", Percentile(latency, 50) * 1e3, "ms");
      report_->Add("setup_s", setup_s_, "s");
      report_->Add("peak_rss_mb", peak_rss_mb, "MB");
      return;
    }
    const auto n = static_cast<double>(samples_.size());
    report_->Add("op.samples", n, "count");
    report_->Add("op.outside_framework_ms_p50",
                 Median([](const Sample& s) {
                   return (s.latency_s - s.framework_s) * 1e3;
                 }),
                 "ms");
    report_->Add("op.framework_share", Median([](const Sample& s) {
                   return s.framework_s / s.latency_s;
                 }),
                 "ratio");
    report_->Add("op.response_bytes_p50",
                 Median([](const Sample& s) { return s.response_bytes; }),
                 "B");
    for (const Metric& m : layer_metrics_) report_->Add(m.name, m.value, m.unit);
    report_->Add("serve.memo_misses_per_discover",
                 kind_ == Kind::kServeIngest
                     ? Median([](const Sample& s) { return s.memo_misses; })
                     : 0,
                 "count");
    double hits = 0;
    for (const Sample& s : samples_) hits += s.cache_hit ? 1 : 0;
    report_->Add("serve.cache_hit_ratio", n > 0 ? hits / n : 0, "ratio");
    // Zero outside dist_workers2, which is the only workload with workers.
    const std::pair<const char*, const char*> dist_units[] = {
        {"dist.units", "count"},          {"dist.bytes_sent_per_unit", "B"},
        {"dist.bytes_received_per_unit", "B"}, {"dist.reassigns", "count"},
        {"dist.worker_losses", "count"},  {"dist.overhead_ratio", "ratio"}};
    for (const auto& [name, unit] : dist_units) {
      report_->Add(name, dist_[name], unit);
    }
    report_->Add("proc.cpu_ms_per_op", n > 0 ? cpu_s / n * 1e3 : 0, "ms");
    report_->Add("proc.cpu_per_wall", wall_s > 0 ? cpu_s / wall_s : 0,
                 "ratio");
  }

  const Options opt_;
  const Kind kind_;
  Report* report_;
  const size_t nproc_;
  const size_t threads_;
  const size_t workers_;
  std::string workdir_;
  SpanLog log_;

  /// The /discover body of every measured request.
  const std::string page_ =
      StringPrintf("{\"top_k\":%lld}", static_cast<long long>(kTopK));
  std::string dump_;
  std::string kb_;
  double setup_s_ = 0;
  uint64_t ref_digest_ = 0;
  uint64_t ref_top_digest_ = 0;
  int64_t ref_facts_ = 0;
  std::vector<Sample> samples_;
  std::vector<Metric> layer_metrics_;
  std::map<std::string, double> dist_;

  // Serve workloads.
  std::unique_ptr<web::Corpus> base_;
  std::unique_ptr<Child> server_;
  uint16_t port_ = 0;
  std::unique_ptr<HttpClient> client_;
  bool connection_lost_ = false;
  std::vector<DeltaFact> deltas_;
  ExitInfo server_info_;
};

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("workload", "", "batch_closedie|batch_openie_kb|"
                                  "serve_ingest|serve_cached|dist_workers2");
  flags.AddInt64("seed", 42, "input seed: same seed, same inputs");
  flags.AddDouble("seconds", 10, "how long the operations are measured");
  flags.AddInt64("trace", 0, "0: end-to-end metrics; 1: per-layer metrics");
  flags.AddString("midas", "", "path to the midas CLI binary (required)");
  flags.AddString("workdir", ".bench_work",
                  "directory for generated inputs (removed after the run)");
  flags.AddString("trace_out", "",
                  "with --trace 1: write the spans as a Chrome trace here");
  const Status parsed = flags.Parse(argc, argv);
  Options options;
  for (const Workload& w : kWorkloads) {
    if (flags.GetString("workload") == w.name) options.workload = &w;
  }
  if (!parsed.ok() || options.workload == nullptr ||
      flags.GetString("midas").empty() || flags.GetInt64("seed") < 0 ||
      flags.GetDouble("seconds") <= 0 ||
      (flags.GetInt64("trace") != 0 && flags.GetInt64("trace") != 1)) {
    std::cerr << (parsed.ok() ? "invalid or missing flag value"
                              : parsed.ToString())
              << "\n"
              << flags.Usage("midas_bench");
    return 2;
  }
  options.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  options.seconds = flags.GetDouble("seconds");
  options.trace = flags.GetInt64("trace") == 1;
  options.midas = flags.GetString("midas");
  options.workdir = flags.GetString("workdir");
  options.trace_out = flags.GetString("trace_out");
  if (::access(options.midas.c_str(), X_OK) != 0) {
    std::cerr << "midas_bench: no executable at --midas " << options.midas
              << "\n";
    return 2;
  }

  BecomeSubreaper();
  Report report;
  Status status;
  {
    Bench bench(options, &report);
    status = bench.Run();
  }
  // Reap anything a killed child left behind before exiting.
  while (::waitpid(-1, nullptr, 0) > 0 || errno == EINTR) {
  }
  if (!status.ok()) {
    std::cerr << "midas_bench: " << status.ToString() << "\n";
    return 1;
  }
  report.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace midas

int main(int argc, char** argv) { return midas::perfbench::Main(argc, argv); }

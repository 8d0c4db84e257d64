#include "tools/commands.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <unordered_map>

#include "midas/baselines/methods.h"
#include "midas/core/midas.h"
#include "midas/dist/coordinator.h"
#include "midas/dist/net.h"
#include "midas/dist/worker.h"
#include "midas/eval/experiment.h"
#include "midas/eval/metrics.h"
#include "midas/eval/summary.h"
#include "midas/fault/fault.h"
#include "midas/obs/export.h"
#include "midas/obs/obs.h"
#include "midas/extract/cleaning.h"
#include "midas/extract/columnar_io.h"
#include "midas/extract/dump_io.h"
#include "midas/rdf/ntriples.h"
#include "midas/serve/discovery_service.h"
#include "midas/serve/http_server.h"
#include "midas/synth/corpus_generator.h"
#include "midas/synth/dataset_stats.h"
#include "midas/util/json.h"
#include "midas/util/logging.h"
#include "midas/util/string_util.h"
#include "midas/util/table_printer.h"
#include "midas/util/tsv.h"

namespace midas {
namespace tools {

namespace {

// Converts a ground-truth slice to the DiscoveredSlice shape so silver
// standards share the slice_io on-disk format.
core::DiscoveredSlice ToDiscovered(const synth::GroundTruthSlice& gt) {
  core::DiscoveredSlice slice;
  slice.source_url = gt.source_url;
  for (const auto& [pred, value] : gt.rule) {
    slice.properties.push_back(core::PropertyPair{pred, value});
  }
  slice.entities = gt.entities;
  slice.facts = gt.facts;
  slice.num_facts = gt.facts.size();
  return slice;
}

Status LoadKbFacts(const std::string& path, rdf::KnowledgeBase* kb,
                   rdf::Dictionary* dict) {
  std::vector<rdf::Triple> facts;
  MIDAS_RETURN_IF_ERROR(rdf::LoadTsvFacts(path, dict, &facts));
  kb->AddAll(facts);
  return Status::OK();
}

/// Registers the shared observability flags (discover + experiment).
void RegisterMetricsFlags(FlagParser* flags) {
  flags->AddString("metrics_out", "",
                   "write the metrics/tracing JSON document here (optional)");
  flags->AddBool("metrics_summary", false,
                 "print a metrics summary after the run");
}

/// Honors --metrics_out / --metrics_summary after a command's work is done.
Status EmitMetrics(const FlagParser& flags, std::ostream& out) {
  MIDAS_RETURN_IF_ERROR(obs::WriteMetricsJson(flags.GetString("metrics_out")));
  if (flags.GetBool("metrics_summary")) out << obs::MetricsSummary();
  return Status::OK();
}

/// Registers the shared robustness flags (discover + experiment).
void RegisterRobustnessFlags(FlagParser* flags) {
  flags->AddInt64("source_deadline_ms", 0,
                  "per-source detection budget in ms (0 = unbounded); "
                  "expired shards return best-so-far slices marked partial");
  flags->AddInt64("max_retries", 2,
                  "retries after a shard's detector throws");
  flags->AddString("fault_spec", "",
                   "arm deterministic fault injection, e.g. "
                   "'site=detector,rate=0.05,seed=42' (sites only fire in a "
                   "MIDAS_FAULT_INJECTION build; see docs/ROBUSTNESS.md)");
  flags->AddString("checkpoint_dir", "",
                   "directory for the run's durable checkpoint log; each "
                   "finished source is appended so a killed run can be "
                   "continued with --resume (empty = no checkpointing)");
  flags->AddBool("resume", false,
                 "with --checkpoint_dir: skip sources the existing "
                 "checkpoint already records and merge their results "
                 "bit-identically");
}

/// Applies the robustness flags to the framework options and arms the fault
/// injector when --fault_spec is set (pair with a ScopedDisarm).
Status ApplyRobustnessFlags(const FlagParser& flags,
                            core::FrameworkOptions* options) {
  options->source_deadline_ms =
      static_cast<uint64_t>(flags.GetInt64("source_deadline_ms"));
  options->max_retries = static_cast<size_t>(flags.GetInt64("max_retries"));
  options->checkpoint_dir = flags.GetString("checkpoint_dir");
  options->resume = flags.GetBool("resume");
  if (options->resume && options->checkpoint_dir.empty()) {
    return Status::InvalidArgument("--resume requires --checkpoint_dir");
  }
  const std::string spec = flags.GetString("fault_spec");
  if (!spec.empty()) {
    MIDAS_RETURN_IF_ERROR(fault::FaultInjector::Global().Configure(spec));
  }
  return Status::OK();
}

/// Disarms the fault injector on scope exit (no-op when never armed), so a
/// command cannot leak an armed spec into later work in the same process.
struct ScopedDisarm {
  ~ScopedDisarm() { fault::FaultInjector::Global().Disarm(); }
};

/// Writes the per-source robustness outcome of a run: a text summary of
/// anything that did not complete cleanly, or the full `sources` array in
/// JSON mode.
void ReportSources(const core::FrameworkResult& result, bool json,
                   JsonValue* report, std::ostream& out) {
  if (json) {
    report->Set("partial", JsonValue::Bool(result.partial));
    JsonValue sources = JsonValue::Array();
    for (const auto& sr : result.sources) {
      JsonValue row = JsonValue::Object();
      row.Set("url", JsonValue::Str(sr.url));
      row.Set("status", JsonValue::Str(core::SourceStatusName(sr.status)));
      row.Set("attempts", JsonValue::Int(static_cast<int64_t>(sr.attempts)));
      if (!sr.error.empty()) row.Set("error", JsonValue::Str(sr.error));
      sources.Append(std::move(row));
    }
    report->Set("sources", std::move(sources));
    return;
  }
  if (result.partial) {
    out << "NOTE: partial result — a deadline or cancellation cut the run "
           "short; slices are best-so-far\n";
  }
  for (const auto& sr : result.sources) {
    if (sr.status == core::SourceStatus::kFailed) {
      out << "failed source: " << sr.url << " (" << sr.attempts
          << " attempts): " << sr.error << "\n";
    }
  }
}

}  // namespace

void RegisterGenerateFlags(FlagParser* flags) {
  flags->AddString("dataset", "slim-nell",
                   "reverb|nell|kv|slim-reverb|slim-nell");
  flags->AddDouble("scale", 0.5, "scale factor for full datasets");
  flags->AddInt64("num_sources", 100, "sources for slim datasets");
  flags->AddInt64("pages_per_section", 0,
                  "override mean pages per section (0 = dataset default); "
                  "shapes source density for smoke corpora");
  flags->AddInt64("entities_per_page", 0,
                  "override mean entities per page (0 = dataset default)");
  flags->AddInt64("seed", 11, "generator seed");
  flags->AddString("dump", "", "output extraction dump TSV (required)");
  flags->AddString("kb", "", "output KB facts TSV (optional)");
  flags->AddString("silver", "", "output silver-standard slices (optional)");
}

Status RunGenerate(const FlagParser& flags, std::ostream& out) {
  const std::string dump_path = flags.GetString("dump");
  if (dump_path.empty()) {
    return Status::InvalidArgument("--dump is required");
  }

  const std::string dataset = flags.GetString("dataset");
  double scale = flags.GetDouble("scale");
  uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  size_t num_sources = static_cast<size_t>(flags.GetInt64("num_sources"));

  synth::CorpusGenParams params;
  if (dataset == "reverb") {
    params = synth::ReVerbLikeParams(scale);
  } else if (dataset == "nell") {
    params = synth::NellLikeParams(scale);
  } else if (dataset == "kv") {
    params = synth::KnowledgeVaultLikeParams(scale);
  } else if (dataset == "slim-reverb") {
    params = synth::SlimParams(/*open_ie=*/true, num_sources, seed);
  } else if (dataset == "slim-nell") {
    params = synth::SlimParams(/*open_ie=*/false, num_sources, seed);
  } else {
    return Status::InvalidArgument("unknown --dataset: " + dataset);
  }
  params.seed = seed;
  if (flags.GetInt64("pages_per_section") > 0) {
    params.pages_per_section =
        static_cast<size_t>(flags.GetInt64("pages_per_section"));
  }
  if (flags.GetInt64("entities_per_page") > 0) {
    params.entities_per_page =
        static_cast<size_t>(flags.GetInt64("entities_per_page"));
  }

  auto data = synth::GenerateCorpus(params);

  // Dump: confidence 0.95 (the corpus is already confidence-filtered),
  // written straight from the corpus.
  std::string rows;
  for (const auto& src : data.corpus->sources()) {
    for (const auto& t : src.facts) {
      extract::AppendDumpRow(src.url, t, 0.95, *data.dict, &rows);
    }
  }
  MIDAS_RETURN_IF_ERROR(TsvWriteFile(dump_path, rows));
  out << "wrote " << data.corpus->NumFacts() << " extraction records to "
      << dump_path << "\n";

  if (!flags.GetString("kb").empty()) {
    MIDAS_RETURN_IF_ERROR(rdf::SaveTsvFacts(
        flags.GetString("kb"), *data.dict, data.kb->store().triples()));
    out << "wrote " << data.kb->size() << " KB facts to "
        << flags.GetString("kb") << "\n";
  }
  if (!flags.GetString("silver").empty()) {
    std::vector<core::DiscoveredSlice> silver;
    for (const auto& gt : data.silver.slices) {
      silver.push_back(ToDiscovered(gt));
    }
    MIDAS_RETURN_IF_ERROR(
        core::SaveSlices(flags.GetString("silver"), *data.dict, silver));
    out << "wrote " << silver.size() << " silver slices to "
        << flags.GetString("silver") << "\n";
  }
  return Status::OK();
}

void RegisterDiscoverFlags(FlagParser* flags) {
  flags->AddString("dump", "", "extraction dump TSV (required)");
  flags->AddString("kb", "", "KB facts TSV (optional)");
  flags->AddString("method", "midas", "midas|greedy|aggcluster|naive");
  flags->AddDouble("threshold", 0.7, "confidence threshold");
  flags->AddInt64("top_k", 20, "rows to print");
  flags->AddString("out", "", "save the full slice list here (optional)");
  flags->AddBool("ranges", false, "numeric-range property extension");
  flags->AddDouble("f_p", 10.0, "per-slice training cost");
  flags->AddDouble("f_c", 0.001, "per-fact crawling cost");
  flags->AddDouble("f_d", 0.01, "per-fact de-duplication cost");
  flags->AddDouble("f_v", 0.1, "per-new-fact validation cost");
  flags->AddInt64("threads", 0, "framework threads (0 = hardware)");
  flags->AddBool("json", false, "emit a JSON report instead of tables");
  flags->AddBool("clean", false,
                 "run the extraction-hygiene pass before discovery");
  flags->AddString("functional", "",
                   "comma-separated functional predicates for --clean");
  flags->AddBool("strict_load", true,
                 "abort on the first malformed dump row; with "
                 "--strict_load=false malformed rows are quarantined "
                 "(counted and skipped) instead");
  flags->AddInt64("workers", 0,
                  "run detection in N self-forked worker processes instead "
                  "of in-process threads (0 = in-process; results are "
                  "bit-identical either way; docs/DISTRIBUTED.md)");
  flags->AddInt64("worker_respawn_limit", 8,
                  "total replacement workers the coordinator may fork after "
                  "crashes before lost units are abandoned (also the budget "
                  "for external workers joining after the run starts)");
  flags->AddInt64("worker_liveness_ms", 0,
                  "declare a worker lost after this many ms of silence and "
                  "re-queue its unit (0 = EOF-only loss detection; set well "
                  "above the workers' --heartbeat_ms)");
  RegisterRobustnessFlags(flags);
  RegisterMetricsFlags(flags);
}

/// Corpus + KB + detector built from the shared discover-style flags.
/// `midas discover`, `midas coordinator`, and `midas worker` all construct
/// their run through this one function: a worker whose setup differed from
/// its coordinator's could not produce bit-identical shard results (the
/// Hello fingerprint catches such a drift).
struct DiscoverSetup {
  extract::ExtractionDump dump;  // holds the shared dictionary
  extract::LoadStats load_stats;
  web::Corpus corpus;
  std::unique_ptr<rdf::KnowledgeBase> kb;
  std::unique_ptr<core::NumericRangeIndex> ranges;
  std::unique_ptr<core::SliceDetector> detector;
  bool hierarchy_rounds = true;
  /// baselines::DetectorContext of the method, cost model, --ranges and KB.
  uint64_t detector_context = 0;
};

/// Loads a dump into `corpus` the one way `midas discover` and `midas
/// serve` share: a columnar file goes straight to the corpus build, a TSV
/// file (or any file when `row_step` is set) is loaded row by row into
/// `dump` first. `row_step`, when set, runs on those rows before the
/// build. `dump->dict` ends up as the corpus dictionary either way.
Status LoadCorpus(
    const std::string& path, double threshold,
    const extract::LoadOptions& options,
    const std::function<void(extract::ExtractionDump*)>& row_step,
    extract::ExtractionDump* dump, extract::LoadStats* stats,
    web::Corpus* corpus) {
  if (extract::IsColumnarDump(path) && !row_step) {
    MIDAS_RETURN_IF_ERROR(extract::LoadColumnarCorpus(
        path, threshold, /*dict=*/nullptr, corpus, /*fingerprint=*/nullptr));
    dump->dict = corpus->shared_dict();
    return Status::OK();
  }
  MIDAS_RETURN_IF_ERROR(extract::LoadDump(path, options, dump, stats));
  if (row_step) row_step(dump);
  *corpus = extract::BuildCorpus(*dump, threshold);
  return Status::OK();
}

/// Loads --dump into setup->dump and setup->corpus (BuildDiscoverSetup's
/// "extract.load" span). --clean needs row-level facts, so it takes the row
/// path for columnar dumps too.
Status LoadDiscoverCorpus(const FlagParser& flags, std::ostream& out,
                          DiscoverSetup* setup) {
  const bool json = flags.GetBool("json");
  extract::LoadOptions load_options;
  load_options.strict = flags.GetBool("strict_load");
  std::function<void(extract::ExtractionDump*)> clean;
  extract::CleaningStats clean_stats;
  if (flags.GetBool("clean")) {
    clean = [&flags, &clean_stats](extract::ExtractionDump* dump) {
      extract::CleaningOptions cleaning;
      for (std::string_view name :
           SplitSkipEmpty(flags.GetString("functional"), ',')) {
        cleaning.functional_predicates.emplace_back(name);
      }
      clean_stats =
          extract::CleanExtractions(cleaning, dump->dict.get(), &dump->facts);
    };
  }
  MIDAS_RETURN_IF_ERROR(LoadCorpus(flags.GetString("dump"),
                                   flags.GetDouble("threshold"), load_options,
                                   clean, &setup->dump, &setup->load_stats,
                                   &setup->corpus));
  if (json) return Status::OK();
  if (setup->load_stats.rows_quarantined > 0) {
    out << "quarantined " << setup->load_stats.rows_quarantined
        << " malformed dump row(s)\n";
  }
  if (clean) {
    out << "cleaning: " << clean_stats.input_records << " -> "
        << clean_stats.output_records << " records ("
        << clean_stats.duplicates_merged << " duplicates, "
        << clean_stats.conflicts_resolved << " conflicts, "
        << clean_stats.terms_normalized << " terms normalized)\n";
  }
  return Status::OK();
}

Status BuildDiscoverSetup(const FlagParser& flags, std::ostream& out,
                          DiscoverSetup* setup) {
  if (flags.GetString("dump").empty()) {
    return Status::InvalidArgument("--dump is required");
  }
  const bool json = flags.GetBool("json");
  {
    MIDAS_OBS_SPAN(load_span, "extract.load", flags.GetString("dump"));
    MIDAS_RETURN_IF_ERROR(LoadDiscoverCorpus(flags, out, setup));
  }

  setup->kb = std::make_unique<rdf::KnowledgeBase>(setup->dump.dict);
  if (!flags.GetString("kb").empty()) {
    MIDAS_OBS_SPAN(kb_span, "rdf.kb_load", flags.GetString("kb"));
    MIDAS_RETURN_IF_ERROR(LoadKbFacts(flags.GetString("kb"), setup->kb.get(),
                                      setup->dump.dict.get()));
  }
  if (!json) {
    out << "corpus: " << setup->corpus.NumFacts() << " facts over "
        << setup->corpus.NumSources() << " sources; KB: " << setup->kb->size()
        << " facts\n";
  }

  baselines::DetectorConfig config;
  config.cost_model = core::CostModel{flags.GetDouble("f_p"),
                                      flags.GetDouble("f_c"),
                                      flags.GetDouble("f_d"),
                                      flags.GetDouble("f_v")};

  if (flags.GetBool("ranges")) {
    setup->ranges = std::make_unique<core::NumericRangeIndex>(
        setup->dump.dict.get(), setup->corpus);
    config.range_index = setup->ranges.get();
    if (!json) {
      out << "numeric-range extension: " << setup->ranges->size()
          << " values bucketed\n";
    }
  }

  const std::string method = flags.GetString("method");
  const baselines::Method* spec = baselines::FindMethod(method);
  if (spec == nullptr) {
    return Status::InvalidArgument("unknown --method: " + method);
  }
  setup->detector = spec->make(config);
  setup->hierarchy_rounds = spec->hierarchy_rounds;
  setup->detector_context =
      baselines::DetectorContext(spec->token, config.cost_model,
                                 flags.GetBool("ranges"),
                                 baselines::HashKbContent(*setup->kb));
  return Status::OK();
}

/// The shared body of `midas discover` (external_coordinator = false; dist
/// mode only with --workers > 0, self-forked) and `midas coordinator`
/// (true; workers join over --listen).
Status RunDiscoverImpl(const FlagParser& flags, std::ostream& out,
                       bool external_coordinator) {
  DiscoverSetup setup;
  MIDAS_RETURN_IF_ERROR(BuildDiscoverSetup(flags, out, &setup));
  extract::ExtractionDump& dump = setup.dump;
  web::Corpus& corpus = setup.corpus;
  rdf::KnowledgeBase& kb = *setup.kb;
  const extract::LoadStats& load_stats = setup.load_stats;
  const std::string method = flags.GetString("method");
  const bool json = flags.GetBool("json");

  core::FrameworkOptions framework_options;
  framework_options.num_threads =
      static_cast<size_t>(flags.GetInt64("threads"));
  framework_options.use_hierarchy_rounds = setup.hierarchy_rounds;
  framework_options.detector_context = setup.detector_context;
  MIDAS_RETURN_IF_ERROR(ApplyRobustnessFlags(flags, &framework_options));
  ScopedDisarm disarm;

  // Multi-process execution (docs/DISTRIBUTED.md): plug a DistCoordinator
  // in as the framework's shard executor. Workers must be started before
  // framework.Run — self-forked children then inherit the loaded corpus,
  // KB, detector, and any armed fault spec, and fork before the run's
  // thread pool exists.
  std::unique_ptr<dist::DistCoordinator> coordinator;
  const int64_t workers = flags.GetInt64("workers");
  if (external_coordinator || workers > 0) {
    const uint64_t fingerprint =
        core::ComputeRunFingerprint(corpus, framework_options);
    core::ShardDetectOptions detect;
    detect.source_deadline_ms = framework_options.source_deadline_ms;
    detect.max_retries = framework_options.max_retries;
    detect.retry_backoff_ms = framework_options.retry_backoff_ms;
    detect.run_seed = framework_options.run_seed;

    dist::DistOptions dist_options;
    dist_options.fingerprint = fingerprint;
    dist_options.worker_respawn_limit =
        static_cast<size_t>(flags.GetInt64("worker_respawn_limit"));
    dist_options.worker_liveness_ms =
        static_cast<int>(flags.GetInt64("worker_liveness_ms"));
    if (external_coordinator) {
      dist_options.listen_path = flags.GetString("listen");
      if (dist_options.listen_path.empty()) {
        return Status::InvalidArgument("--listen is required");
      }
      dist_options.min_workers =
          static_cast<size_t>(flags.GetInt64("min_workers"));
      dist_options.accept_timeout_ms =
          static_cast<int>(flags.GetInt64("accept_timeout_ms"));
    } else {
      dist_options.num_workers = static_cast<size_t>(workers);
      // detect is captured by VALUE: respawned workers fork from inside
      // framework.Run, long after this block's stack frame is gone.
      // Heartbeats feed only the liveness deadline: without one, a worker
      // would start and join a beater thread per unit that nothing reads.
      const bool heartbeat = dist_options.worker_liveness_ms > 0;
      dist_options.worker_main = [&setup, detect, fingerprint,
                                  heartbeat](int fd) {
        dist::WorkerConfig config;
        config.corpus = &setup.corpus;
        config.detector = setup.detector.get();
        config.kb = setup.kb.get();
        config.detect = detect;
        config.fingerprint = fingerprint;
        if (!heartbeat) config.heartbeat_interval_ms = 0;
        const Status worker_status = dist::RunWorkerLoop(fd, config);
        if (!worker_status.ok()) {
          MIDAS_LOG(Warning) << "dist: worker exiting on error: "
                             << worker_status.message();
        }
        ::_exit(worker_status.ok() ? 0 : 1);
      };
    }
    coordinator = std::make_unique<dist::DistCoordinator>(
        setup.dump.dict.get(), dist_options);
    if (external_coordinator) {
      // Bind before Start() blocks on Hellos, so the resolved address (and
      // an ephemeral TCP port) is printed while workers can still be
      // launched against it.
      MIDAS_RETURN_IF_ERROR(coordinator->Listen());
      if (!json) {
        out << "dist: listening for workers on " << flags.GetString("listen");
        if (coordinator->listen_port() != 0) {
          out << " (port " << coordinator->listen_port() << ")";
        }
        out << "\n";
        out.flush();
      }
    }
    MIDAS_RETURN_IF_ERROR(coordinator->Start());
    framework_options.executor = coordinator.get();
    if (!external_coordinator && !json) {
      out << "dist: " << workers << " forked worker(s)\n";
      out.flush();
    }
  }

  core::MidasFramework framework(setup.detector.get(), framework_options);
  auto result = framework.Run(corpus, kb);
  if (coordinator != nullptr) coordinator->Shutdown();

  if (json) {
    JsonValue report = JsonValue::Object();
    report.Set("method", JsonValue::Str(method));
    report.Set("corpus_facts", JsonValue::Int(
                                   static_cast<int64_t>(corpus.NumFacts())));
    report.Set("corpus_sources",
               JsonValue::Int(static_cast<int64_t>(corpus.NumSources())));
    report.Set("kb_facts", JsonValue::Int(static_cast<int64_t>(kb.size())));
    report.Set("rows_quarantined",
               JsonValue::Int(
                   static_cast<int64_t>(load_stats.rows_quarantined)));
    report.Set("seconds", JsonValue::Number(result.stats.seconds));
    report.Set("shards_failed",
               JsonValue::Int(
                   static_cast<int64_t>(result.stats.shards_failed)));
    report.Set("shard_retries",
               JsonValue::Int(
                   static_cast<int64_t>(result.stats.shard_retries)));
    report.Set("deadline_expirations",
               JsonValue::Int(
                   static_cast<int64_t>(result.stats.deadline_expirations)));
    ReportSources(result, /*json=*/true, &report, out);
    report.Set("slices", core::SlicesToJson(result.slices, *dump.dict));
    out << report.Dump(2) << "\n";
    if (!flags.GetString("out").empty()) {
      MIDAS_RETURN_IF_ERROR(core::SaveSlices(flags.GetString("out"),
                                             *dump.dict, result.slices));
    }
    return EmitMetrics(flags, out);
  }

  out << "discovered " << result.slices.size() << " slices in "
      << FormatDouble(result.stats.seconds, 3) << "s ("
      << result.stats.detector_calls << " detector calls over "
      << result.stats.rounds << " rounds";
  if (result.stats.shard_retries > 0) {
    out << ", " << result.stats.shard_retries << " retries";
  }
  if (result.stats.shards_failed > 0) {
    out << ", " << result.stats.shards_failed << " sources failed";
  }
  out << ")\n";
  ReportSources(result, /*json=*/false, nullptr, out);
  out << eval::SummarizeSlices(result.slices).ToString();

  TablePrinter table({"#", "web source", "what to extract", "facts",
                      "new", "profit"});
  size_t top_k = static_cast<size_t>(flags.GetInt64("top_k"));
  for (size_t i = 0; i < result.slices.size() && i < top_k; ++i) {
    const auto& s = result.slices[i];
    table.AddRow({std::to_string(i + 1), s.source_url,
                  s.Description(*dump.dict), std::to_string(s.num_facts),
                  std::to_string(s.num_new_facts),
                  FormatDouble(s.profit, 3)});
  }
  table.Print(out);

  if (!flags.GetString("out").empty()) {
    MIDAS_RETURN_IF_ERROR(
        core::SaveSlices(flags.GetString("out"), *dump.dict, result.slices));
    out << "saved full slice list to " << flags.GetString("out") << "\n";
  }
  return EmitMetrics(flags, out);
}

Status RunDiscover(const FlagParser& flags, std::ostream& out) {
  return RunDiscoverImpl(flags, out, /*external_coordinator=*/false);
}

void RegisterCoordinatorFlags(FlagParser* flags) {
  RegisterDiscoverFlags(flags);
  flags->AddString("listen", "",
                   "address to accept workers on (required): host:port "
                   "(TCP, e.g. 127.0.0.1:7070 or [::1]:0; port 0 = "
                   "ephemeral, printed) or a unix-socket path");
  flags->AddInt64("min_workers", 1,
                  "wait for this many workers before the run starts");
  flags->AddInt64("accept_timeout_ms", 30000,
                  "how long to wait for min_workers");
}

Status RunCoordinator(const FlagParser& flags, std::ostream& out) {
  return RunDiscoverImpl(flags, out, /*external_coordinator=*/true);
}

void RegisterWorkerFlags(FlagParser* flags) {
  // A worker loads the run exactly like the coordinator, so it shares the
  // discover flags (pass the same values on both sides; the Hello
  // fingerprint rejects a worker whose corpus, seed, mode or detector
  // differ).
  RegisterDiscoverFlags(flags);
  flags->AddString("connect", "",
                   "coordinator address (required): host:port (TCP) or a "
                   "unix-socket path");
  flags->AddInt64("connect_timeout_ms", 10000,
                  "keep retrying the connect for this long (covers the "
                  "window before the coordinator binds)");
  flags->AddInt64("heartbeat_ms", 1000,
                  "heartbeat interval in ms, while idle and during unit "
                  "execution (0 = no heartbeats; keep well under the "
                  "coordinator's --worker_liveness_ms)");
}

Status RunWorker(const FlagParser& flags, std::ostream& out) {
  const std::string path = flags.GetString("connect");
  if (path.empty()) {
    return Status::InvalidArgument("--connect is required");
  }
  DiscoverSetup setup;
  MIDAS_RETURN_IF_ERROR(BuildDiscoverSetup(flags, out, &setup));

  core::FrameworkOptions framework_options;
  framework_options.use_hierarchy_rounds = setup.hierarchy_rounds;
  framework_options.detector_context = setup.detector_context;
  MIDAS_RETURN_IF_ERROR(ApplyRobustnessFlags(flags, &framework_options));
  ScopedDisarm disarm;

  // TCP host:port or unix path, dispatched on the address grammar; retries
  // ECONNREFUSED/ENOENT until the deadline so worker start order does not
  // race the coordinator's bind.
  const StatusOr<int> connected = dist::ConnectAddress(
      path, static_cast<int>(flags.GetInt64("connect_timeout_ms")));
  if (!connected.ok()) return connected.status();
  const int fd = *connected;

  dist::WorkerConfig config;
  config.corpus = &setup.corpus;
  config.detector = setup.detector.get();
  config.kb = setup.kb.get();
  config.detect.source_deadline_ms = framework_options.source_deadline_ms;
  config.detect.max_retries = framework_options.max_retries;
  config.detect.retry_backoff_ms = framework_options.retry_backoff_ms;
  config.detect.run_seed = framework_options.run_seed;
  config.fingerprint =
      core::ComputeRunFingerprint(setup.corpus, framework_options);
  config.heartbeat_interval_ms =
      static_cast<int>(flags.GetInt64("heartbeat_ms"));
  config.transport = dist::IsTcpAddress(path) ? dist::Transport::kTcp
                                              : dist::Transport::kUnix;

  out << "worker: connected to " << path << "\n";
  out.flush();
  const Status status = dist::RunWorkerLoop(fd, config);
  if (status.ok()) out << "worker: released\n";
  return status;
}

void RegisterExperimentFlags(FlagParser* flags) {
  flags->AddString("dataset", "slim-nell", "slim-nell|slim-reverb");
  flags->AddInt64("num_sources", 40, "source count");
  flags->AddInt64("seed", 11, "generator seed");
  flags->AddString("methods", "midas",
                   "comma-separated midas|greedy|aggcluster|naive");
  flags->AddInt64("threads", 0, "framework threads (0 = hardware)");
  flags->AddDouble("jaccard", 0.95, "silver-match equivalence threshold");
  flags->AddDouble("f_p", 10.0, "per-slice training cost");
  flags->AddDouble("f_c", 0.001, "per-fact crawling cost");
  flags->AddDouble("f_d", 0.01, "per-fact de-duplication cost");
  flags->AddDouble("f_v", 0.1, "per-new-fact validation cost");
  flags->AddBool("json", false, "emit a JSON report instead of tables");
  RegisterRobustnessFlags(flags);
  RegisterMetricsFlags(flags);
}

Status RunExperiment(const FlagParser& flags, std::ostream& out) {
  const std::string dataset = flags.GetString("dataset");
  bool open_ie;
  if (dataset == "slim-nell") {
    open_ie = false;
  } else if (dataset == "slim-reverb") {
    open_ie = true;
  } else {
    return Status::InvalidArgument("unknown --dataset: " + dataset);
  }

  const auto num_sources = static_cast<size_t>(flags.GetInt64("num_sources"));
  const auto seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  auto data =
      synth::GenerateCorpus(synth::SlimParams(open_ie, num_sources, seed));

  core::CostModel cost{flags.GetDouble("f_p"), flags.GetDouble("f_c"),
                       flags.GetDouble("f_d"), flags.GetDouble("f_v")};
  eval::MethodSuite suite(cost);

  std::vector<const baselines::Method*> methods;
  for (std::string_view token :
       SplitSkipEmpty(flags.GetString("methods"), ',')) {
    const baselines::Method* method = baselines::FindMethod(token);
    if (method == nullptr) {
      return Status::InvalidArgument("unknown method: " + std::string(token));
    }
    methods.push_back(method);
  }
  if (methods.empty()) {
    return Status::InvalidArgument("--methods must name at least one method");
  }

  const bool json = flags.GetBool("json");
  const auto threads = static_cast<size_t>(flags.GetInt64("threads"));
  const double jaccard = flags.GetDouble("jaccard");

  if (!json) {
    out << "experiment: " << dataset << ", " << data.corpus->NumFacts()
        << " facts over " << data.corpus->NumSources() << " sources, "
        << data.kb->size() << " KB facts, " << data.silver.slices.size()
        << " silver slices\n";
  }

  JsonValue report = JsonValue::Object();
  report.Set("dataset", JsonValue::Str(dataset));
  report.Set("num_sources",
             JsonValue::Int(static_cast<int64_t>(data.corpus->NumSources())));
  report.Set("silver_slices",
             JsonValue::Int(static_cast<int64_t>(data.silver.slices.size())));
  JsonValue rows = JsonValue::Array();

  core::FrameworkOptions framework_options;
  framework_options.num_threads = threads;
  framework_options.run_seed = seed;
  MIDAS_RETURN_IF_ERROR(ApplyRobustnessFlags(flags, &framework_options));
  ScopedDisarm disarm;

  TablePrinter table({"method", "slices", "precision", "recall", "f-measure",
                      "seconds"});
  const baselines::KbContentHash kb_hash = baselines::HashKbContent(*data.kb);
  for (const baselines::Method* method : methods) {
    const std::string name = method->suite_name;
    const eval::MethodSpec* spec = suite.Find(name);
    MIDAS_CHECK(spec != nullptr);
    // Each method's checkpoint binds its own detector, so a resumed
    // experiment never restores one method's shards into another's run.
    framework_options.detector_context = baselines::DetectorContext(
        method->token, cost, /*ranges=*/false, kb_hash);
    auto result = eval::RunMethodWithOptions(*spec, *data.corpus, *data.kb,
                                             framework_options);
    auto scores =
        eval::ScoreAgainstSilver(result.slices, data.silver, jaccard);
    table.AddRow({name, std::to_string(result.slices.size()),
                  FormatDouble(scores.precision, 3),
                  FormatDouble(scores.recall, 3),
                  FormatDouble(scores.f_measure, 3),
                  FormatDouble(result.stats.seconds, 3)});
    if (!json) ReportSources(result, /*json=*/false, nullptr, out);
    JsonValue row = JsonValue::Object();
    row.Set("method", JsonValue::Str(name));
    row.Set("slices",
            JsonValue::Int(static_cast<int64_t>(result.slices.size())));
    row.Set("precision", JsonValue::Number(scores.precision));
    row.Set("recall", JsonValue::Number(scores.recall));
    row.Set("f_measure", JsonValue::Number(scores.f_measure));
    row.Set("seconds", JsonValue::Number(result.stats.seconds));
    row.Set("shards_failed",
            JsonValue::Int(static_cast<int64_t>(result.stats.shards_failed)));
    row.Set("shard_retries",
            JsonValue::Int(static_cast<int64_t>(result.stats.shard_retries)));
    row.Set("deadline_expirations",
            JsonValue::Int(
                static_cast<int64_t>(result.stats.deadline_expirations)));
    ReportSources(result, /*json=*/true, &row, out);
    rows.Append(std::move(row));
  }
  report.Set("methods", std::move(rows));

  if (json) {
    out << report.Dump(2) << "\n";
  } else {
    table.Print(out);
  }
  return EmitMetrics(flags, out);
}

void RegisterStatsFlags(FlagParser* flags) {
  flags->AddString("dump", "", "extraction dump TSV (required)");
  flags->AddDouble("threshold", 0.7, "confidence threshold");
}

Status RunStats(const FlagParser& flags, std::ostream& out) {
  if (flags.GetString("dump").empty()) {
    return Status::InvalidArgument("--dump is required");
  }
  extract::ExtractionDump dump;
  MIDAS_RETURN_IF_ERROR(extract::LoadDump(flags.GetString("dump"), &dump));
  web::Corpus corpus =
      extract::BuildCorpus(dump, flags.GetDouble("threshold"));
  rdf::KnowledgeBase empty_kb(dump.dict);
  auto stats = synth::ComputeDatasetStats(flags.GetString("dump"), corpus,
                                          empty_kb);
  TablePrinter table({"# of facts", "# of pred.", "# of URLs",
                      "# of subjects", "records in dump"});
  table.AddRow({FormatCount(stats.num_facts),
                FormatCount(stats.num_predicates),
                FormatCount(stats.num_urls),
                FormatCount(corpus.NumDistinctSubjects()),
                FormatCount(dump.facts.size())});
  table.Print(out);
  return Status::OK();
}

void RegisterConvertFlags(FlagParser* flags) {
  flags->AddString("in", "", "input dump, TSV or columnar (required)");
  flags->AddString("out", "", "output path (required)");
  flags->AddString("to", "auto",
                   "output format: columnar|tsv|auto (auto converts to the "
                   "opposite of the detected input format)");
  flags->AddBool("reindex", false,
                 "with columnar output: stable-group records by source "
                 "(sources in first-appearance order, each source's "
                 "records in their input order)");
}

Status RunConvert(const FlagParser& flags, std::ostream& out) {
  const std::string in_path = flags.GetString("in");
  const std::string out_path = flags.GetString("out");
  if (in_path.empty() || out_path.empty()) {
    return Status::InvalidArgument("--in and --out are required");
  }
  const bool in_columnar = extract::IsColumnarDump(in_path);
  std::string to = flags.GetString("to");
  if (to == "auto") to = in_columnar ? "tsv" : "columnar";
  if (to != "tsv" && to != "columnar") {
    return Status::InvalidArgument("unknown --to: " + to);
  }
  const bool reindex = flags.GetBool("reindex");
  if (reindex && to != "columnar") {
    return Status::InvalidArgument("--reindex requires columnar output");
  }
  extract::ExtractionDump dump;
  extract::LoadStats load_stats;
  MIDAS_RETURN_IF_ERROR(
      extract::LoadDump(in_path, extract::LoadOptions{}, &dump, &load_stats));
  if (reindex) {
    // Stable-group records by URL in first-appearance order: each source's
    // records become one contiguous run, with per-source record order
    // intact, so corpora built from the file are unchanged.
    std::unordered_map<std::string_view, uint32_t> first_seen;
    for (const extract::ExtractedFact& fact : dump.facts) {
      first_seen.try_emplace(fact.url,
                             static_cast<uint32_t>(first_seen.size()));
    }
    std::stable_sort(dump.facts.begin(), dump.facts.end(),
                     [&first_seen](const extract::ExtractedFact& a,
                                   const extract::ExtractedFact& b) {
                       return first_seen.find(a.url)->second <
                              first_seen.find(b.url)->second;
                     });
  }
  if (to == "columnar") {
    MIDAS_RETURN_IF_ERROR(extract::SaveColumnarDump(out_path, dump));
  } else {
    MIDAS_RETURN_IF_ERROR(extract::SaveDump(out_path, dump));
  }
  out << "converted " << dump.facts.size() << " records: " << in_path << " ("
      << (in_columnar ? "columnar" : "tsv") << ") -> " << out_path << " ("
      << to << ")\n";
  return Status::OK();
}

void RegisterEvaluateFlags(FlagParser* flags) {
  flags->AddString("slices", "", "discovered slices file (required)");
  flags->AddString("silver", "", "silver-standard slices file (required)");
  flags->AddDouble("jaccard", 0.95, "equivalence threshold");
  flags->AddBool("json", false, "emit a JSON report instead of a table");
}

Status RunEvaluate(const FlagParser& flags, std::ostream& out) {
  if (flags.GetString("slices").empty() ||
      flags.GetString("silver").empty()) {
    return Status::InvalidArgument("--slices and --silver are required");
  }
  auto dict = std::make_shared<rdf::Dictionary>();
  std::vector<core::DiscoveredSlice> returned, silver_slices;
  MIDAS_RETURN_IF_ERROR(
      core::LoadSlices(flags.GetString("slices"), dict.get(), &returned));
  MIDAS_RETURN_IF_ERROR(core::LoadSlices(flags.GetString("silver"),
                                         dict.get(), &silver_slices));

  synth::SilverStandard silver;
  for (const auto& s : silver_slices) {
    synth::GroundTruthSlice gt;
    gt.source_url = s.source_url;
    gt.entities = s.entities;
    gt.facts = s.facts;
    silver.slices.push_back(std::move(gt));
  }

  auto scores = eval::ScoreAgainstSilver(returned, silver,
                                         flags.GetDouble("jaccard"));
  if (flags.GetBool("json")) {
    JsonValue report = JsonValue::Object();
    report.Set("returned",
               JsonValue::Int(static_cast<int64_t>(scores.returned)));
    report.Set("expected",
               JsonValue::Int(static_cast<int64_t>(scores.expected)));
    report.Set("matched", JsonValue::Int(static_cast<int64_t>(scores.matched)));
    report.Set("precision", JsonValue::Number(scores.precision));
    report.Set("recall", JsonValue::Number(scores.recall));
    report.Set("f_measure", JsonValue::Number(scores.f_measure));
    out << report.Dump(2) << "\n";
    return Status::OK();
  }
  TablePrinter table({"returned", "expected", "matched", "precision",
                      "recall", "f-measure"});
  table.AddRow({std::to_string(scores.returned),
                std::to_string(scores.expected),
                std::to_string(scores.matched),
                FormatDouble(scores.precision, 3),
                FormatDouble(scores.recall, 3),
                FormatDouble(scores.f_measure, 3)});
  table.Print(out);
  return Status::OK();
}

void RegisterServeFlags(FlagParser* flags) {
  flags->AddString("corpus", "",
                   "extraction dump to serve, TSV or columnar (required)");
  flags->AddString("kb", "", "KB facts TSV (optional; empty KB if not)");
  flags->AddDouble("threshold", 0.7,
                   "confidence threshold for the load and for ingested "
                   "deltas");
  flags->AddInt64("port", 8080, "listen port (0 = ephemeral, printed)");
  flags->AddString("bind", "127.0.0.1", "listen address");
  flags->AddInt64("threads", 0, "framework threads per request (0 = "
                                "hardware)");
  flags->AddInt64("max_inflight", 64,
                  "concurrent request cap; excess answered 503");
  flags->AddInt64("request_deadline_ms", 0,
                  "per-request budget in ms (0 = unbounded)");
  flags->AddInt64("cache_capacity", 64,
                  "result-cache entries (0 disables caching)");
  flags->AddString("fault_spec", "",
                   "arm deterministic fault injection, e.g. "
                   "'site=serve_read,rate=1' or 'site=slow_shard,"
                   "delay_ms=100' (MIDAS_FAULT_INJECTION builds only)");
}

namespace {

// SIGTERM/SIGINT delivery target; ShutdownAsync is async-signal-safe.
serve::HttpServer* g_serving = nullptr;

void HandleServeSignal(int) {
  if (g_serving != nullptr) g_serving->ShutdownAsync();
}

}  // namespace

Status RunServe(const FlagParser& flags, std::ostream& out) {
  const std::string corpus_path = flags.GetString("corpus");
  if (corpus_path.empty()) {
    return Status::InvalidArgument("--corpus is required");
  }
  const int64_t port = flags.GetInt64("port");
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("--port out of range");
  }

  const std::string spec = flags.GetString("fault_spec");
  if (!spec.empty()) {
    MIDAS_RETURN_IF_ERROR(fault::FaultInjector::Global().Configure(spec));
  }
  ScopedDisarm disarm;

  const double threshold = flags.GetDouble("threshold");
  web::Corpus corpus;
  std::shared_ptr<rdf::Dictionary> dict;
  {
    extract::ExtractionDump dump;
    MIDAS_RETURN_IF_ERROR(LoadCorpus(corpus_path, threshold,
                                     extract::LoadOptions{}, nullptr, &dump,
                                     nullptr, &corpus));
    dict = dump.dict;
  }
  rdf::KnowledgeBase kb(dict);
  if (!flags.GetString("kb").empty()) {
    MIDAS_RETURN_IF_ERROR(LoadKbFacts(flags.GetString("kb"), &kb,
                                      dict.get()));
  }
  out << "corpus: " << corpus.NumFacts() << " facts over "
      << corpus.NumSources() << " sources; KB: " << kb.size() << " facts\n";

  serve::DiscoveryServiceOptions service_options;
  service_options.confidence_threshold = threshold;
  service_options.num_threads =
      static_cast<size_t>(flags.GetInt64("threads"));
  service_options.default_deadline_ms =
      static_cast<uint64_t>(flags.GetInt64("request_deadline_ms"));
  service_options.cache_capacity =
      static_cast<size_t>(flags.GetInt64("cache_capacity"));
  serve::DiscoveryService service(std::move(corpus), std::move(kb),
                                  service_options);

  serve::HttpServerOptions server_options;
  server_options.bind_address = flags.GetString("bind");
  server_options.port = static_cast<uint16_t>(port);
  server_options.max_inflight =
      static_cast<size_t>(flags.GetInt64("max_inflight"));
  server_options.request_deadline_ms = service_options.default_deadline_ms;
  serve::HttpServer server(
      server_options,
      [&service](const serve::HttpRequest& request,
                 const fault::CancelToken& cancel) {
        return service.Handle(request, cancel);
      });
  MIDAS_RETURN_IF_ERROR(server.Start());

  g_serving = &server;
  std::signal(SIGTERM, HandleServeSignal);
  std::signal(SIGINT, HandleServeSignal);

  // The smoke script scrapes this line for the ephemeral port; keep the
  // shape stable and flush before blocking.
  out << "listening on " << server_options.bind_address << ":"
      << server.port() << "\n";
  out.flush();

  server.Wait();  // until SIGTERM/SIGINT → graceful drain
  server.Shutdown();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_serving = nullptr;

  out << "drained after " << server.requests_served() << " request(s)\n";
  return Status::OK();
}

}  // namespace tools
}  // namespace midas

#ifndef MIDAS_TOOLS_COMMANDS_H_
#define MIDAS_TOOLS_COMMANDS_H_

#include <iosfwd>
#include <string>

#include "midas/util/flags.h"
#include "midas/util/status.h"

namespace midas {
namespace tools {

/// Implementations of the `midas` CLI subcommands, factored out of main()
/// so they are unit-testable. Each takes the already-parsed flags and an
/// output stream.

/// `midas generate` — produce a synthetic dataset on disk:
///   --dataset reverb|nell|kv|slim-reverb|slim-nell
///   --scale F        corpus scale factor (full datasets)
///   --num_sources N  source count (slim datasets)
///   --seed N
///   --dump PATH      extraction dump TSV (required)
///   --kb PATH        knowledge-base facts TSV (optional)
///   --silver PATH    silver-standard slices file (optional)
Status RunGenerate(const FlagParser& flags, std::ostream& out);

/// `midas discover` — run slice discovery over an extraction dump:
///   --dump PATH      extraction dump TSV (required)
///   --kb PATH        knowledge-base facts TSV (optional; empty KB if not)
///   --method midas|greedy|aggcluster|naive
///   --threshold F    confidence threshold (default 0.7)
///   --top_k N        rows to print (default 20)
///   --out PATH       save the full slice list (optional)
///   --ranges         enable the numeric-range property extension
///   --f_p/--f_c/--f_d/--f_v   cost-model coefficients
///   --metrics_out PATH   write the metrics/tracing JSON document here
///   --metrics_summary    print the human-readable metrics summary
Status RunDiscover(const FlagParser& flags, std::ostream& out);

/// `midas experiment` (also the standalone `experiment` binary) — generate
/// a slim synthetic corpus in memory, run the requested methods over it,
/// score each against the generator's silver standard, and optionally dump
/// the observability registry:
///   --dataset slim-nell|slim-reverb
///   --num_sources N  source count (default 40)
///   --seed N
///   --methods LIST   comma-separated midas|greedy|aggcluster|naive
///   --threads N      framework threads (0 = hardware)
///   --f_p/--f_c/--f_d/--f_v   cost-model coefficients
///   --json           emit a JSON report instead of tables
///   --metrics_out PATH   write the metrics/tracing JSON document here
///   --metrics_summary    print the human-readable metrics summary
Status RunExperiment(const FlagParser& flags, std::ostream& out);

/// `midas stats` — dataset statistics of a dump (Fig. 7 columns):
///   --dump PATH      extraction dump TSV (required)
///   --threshold F    confidence threshold (default 0.7)
Status RunStats(const FlagParser& flags, std::ostream& out);

/// `midas convert` — convert an extraction dump between the TSV and the
/// MIDASCOL1 columnar formats (docs/FORMATS.md). The input format is
/// auto-detected by magic:
///   --in PATH        input dump, TSV or columnar (required)
///   --out PATH       output path (required)
///   --to columnar|tsv|auto   output format (auto = opposite of input)
///   --reindex        with columnar output: stable-group records by source
Status RunConvert(const FlagParser& flags, std::ostream& out);

/// `midas evaluate` — score a slice file against a silver-standard file:
///   --slices PATH    discovered slices (slice_io format, required)
///   --silver PATH    silver slices (slice_io format, required)
///   --jaccard F      equivalence threshold (default 0.95)
Status RunEvaluate(const FlagParser& flags, std::ostream& out);

/// `midas coordinator` — distributed slice discovery (docs/DISTRIBUTED.md):
/// all `midas discover` flags, plus:
///   --listen PATH       unix-socket path to accept workers on (required)
///   --min_workers N     wait for this many workers before starting
///   --accept_timeout_ms N   how long to wait for them
/// Runs the framework with worker processes executing the shards; output
/// and slices are bit-identical to `midas discover` with the same flags.
Status RunCoordinator(const FlagParser& flags, std::ostream& out);

/// `midas worker` — one worker process for `midas coordinator`:
/// all `midas discover` flags (pass the coordinator's values), plus:
///   --connect PATH      coordinator unix-socket path (required)
///   --heartbeat_ms N    idle heartbeat interval (0 = none)
/// Loads the same dump/KB, connects, executes WorkAssigns until the
/// coordinator shuts it down.
Status RunWorker(const FlagParser& flags, std::ostream& out);

/// `midas serve` — the online slice-discovery daemon (docs/SERVE.md):
///   --corpus PATH    extraction dump, TSV or columnar (required)
///   --kb PATH        knowledge-base facts TSV (optional; empty KB if not)
///   --threshold F    confidence threshold for load AND ingest (default 0.7)
///   --port N         listen port (default 8080; 0 = ephemeral, printed)
///   --bind ADDR      listen address (default 127.0.0.1)
///   --threads N      framework threads per request (0 = hardware)
///   --max_inflight N concurrent request cap; excess answered 503
///   --request_deadline_ms N   per-request budget (0 = unbounded)
///   --cache_capacity N        result-cache entries (0 disables)
///   --fault_spec SPEC         arm fault injection (serve_accept/serve_read)
/// Serves POST /discover, POST /ingest, GET /healthz, GET /metricz until
/// SIGTERM/SIGINT, then drains in-flight requests and exits 0.
Status RunServe(const FlagParser& flags, std::ostream& out);

/// Registers the flags of each subcommand on a parser.
void RegisterGenerateFlags(FlagParser* flags);
void RegisterDiscoverFlags(FlagParser* flags);
void RegisterExperimentFlags(FlagParser* flags);
void RegisterStatsFlags(FlagParser* flags);
void RegisterConvertFlags(FlagParser* flags);
void RegisterEvaluateFlags(FlagParser* flags);
void RegisterCoordinatorFlags(FlagParser* flags);
void RegisterWorkerFlags(FlagParser* flags);
void RegisterServeFlags(FlagParser* flags);

}  // namespace tools
}  // namespace midas

#endif  // MIDAS_TOOLS_COMMANDS_H_

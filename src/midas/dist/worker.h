#ifndef MIDAS_DIST_WORKER_H_
#define MIDAS_DIST_WORKER_H_

#include <cstdint>

#include "midas/core/framework.h"
#include "midas/core/slice_detector.h"
#include "midas/dist/channel.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/util/status.h"
#include "midas/web/web_source.h"

namespace midas {
namespace dist {

/// Everything a worker process needs to execute WorkAssigns. The corpus,
/// detector and KB must be built from the *same inputs and flags* as the
/// coordinator's (a self-forked worker inherits them; an external worker
/// reloads them) — the Hello fingerprint is how the coordinator checks.
struct WorkerConfig {
  /// The run's corpus: assignments name shards by index into its
  /// sources(), and its dictionary decodes and encodes slice terms.
  const web::Corpus* corpus = nullptr;
  const core::SliceDetector* detector = nullptr;
  const rdf::KnowledgeBase* kb = nullptr;
  /// Per-shard retry/deadline knobs; must match the coordinator's run so
  /// outcomes are bit-identical to in-process execution.
  core::ShardDetectOptions detect;
  /// Announced in Hello; core::ComputeRunFingerprint of the loaded run.
  uint64_t fingerprint = 0;
  /// Heartbeat cadence (ms), both while idle and *during* unit execution
  /// (a background thread beats while the detector runs, so a coordinator
  /// liveness deadline shorter than a long detection does not declare a
  /// healthy worker dead). 0 disables heartbeats; keep it well under the
  /// coordinator's --worker_liveness_ms.
  int heartbeat_interval_ms = 1000;
  /// Transport of `fd`: kTcp connections get TCP_NODELAY and are the
  /// net_delay/net_drop/net_partition injection surface (channel.h).
  Transport transport = Transport::kUnix;
};

/// Runs the worker side of the dist protocol on `fd` (a connected unix or
/// TCP socket; ownership is taken) until Shutdown. Each WorkAssign's facts
/// are rebuilt from the named corpus sources: hierarchy shards
/// (consolidate) get the sorted, deduplicated union — exactly what the
/// framework's normalization produces — and ablation shards name one
/// source and use its fact list as is. An id out of range, or an ablation
/// shard naming other than one source, ends the loop with Corruption. Every
/// shard then runs through core::DetectShardWithRetry — the same per-shard path the
/// in-process executor uses, which is what pins worker results bit-identical
/// to a single-process run.
///
/// The kSiteWorkerCrash fault site fires per (url, assignment) and _exits
/// the process mid-unit, modeling a machine loss for the crash matrix; the
/// re-assigned attempt carries a different key, so it completes.
///
/// Returns OK only on an explicit Shutdown frame. EOF or a connection
/// error without Shutdown means the coordinator died (the coordinator
/// always releases workers with Shutdown first): that is an IoError, so
/// the CLI exits nonzero and a supervisor restarts/alerts instead of
/// treating a headless worker as finished.
Status RunWorkerLoop(int fd, const WorkerConfig& config);

}  // namespace dist
}  // namespace midas

#endif  // MIDAS_DIST_WORKER_H_

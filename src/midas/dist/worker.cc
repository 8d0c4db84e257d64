#include "midas/dist/worker.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "midas/core/consolidate.h"
#include "midas/dist/channel.h"
#include "midas/dist/wire.h"
#include "midas/fault/fault.h"
#include "midas/obs/obs.h"
#include "midas/util/logging.h"

namespace midas {
namespace dist {

namespace {

obs::Counter* UnitsCounter() {
  static obs::Counter* c = MIDAS_OBS_COUNTER("dist.worker_units");
  return c;
}

/// Points `*facts` at the shard's facts, rebuilt from the corpus sources
/// an assignment names. Hierarchy shards get the sorted, deduplicated
/// union in `buffer` (NormalizeShardFacts over the same sources yields
/// the same vector); an ablation shard is one source's fact list as is.
Status ShardFacts(const web::Corpus& corpus, const WorkAssignMsg& assign,
                  std::vector<rdf::Triple>* buffer,
                  const std::vector<rdf::Triple>** facts) {
  const std::vector<web::WebSource>& sources = corpus.sources();
  for (const uint32_t id : assign.source_ids) {
    if (id >= sources.size()) {
      return Status::Corruption("assignment names source " +
                                std::to_string(id) + " of a corpus with " +
                                std::to_string(sources.size()));
    }
  }
  if (!assign.consolidate) {
    if (assign.source_ids.size() != 1) {
      return Status::Corruption(
          "ablation assignment must name exactly one source, got " +
          std::to_string(assign.source_ids.size()));
    }
    *facts = &sources[assign.source_ids[0]].facts;
    return Status::OK();
  }
  buffer->clear();
  for (const uint32_t id : assign.source_ids) {
    buffer->insert(buffer->end(), sources[id].facts.begin(),
                    sources[id].facts.end());
  }
  std::sort(buffer->begin(), buffer->end());
  buffer->erase(std::unique(buffer->begin(), buffer->end()),
                 buffer->end());
  *facts = buffer;
  return Status::OK();
}

}  // namespace

Status RunWorkerLoop(int fd, const WorkerConfig& config) {
  if (config.corpus == nullptr || config.detector == nullptr ||
      config.kb == nullptr) {
    ::close(fd);
    return Status::InvalidArgument("WorkerConfig missing corpus/detector/kb");
  }
  const rdf::Dictionary& dict = config.corpus->dict();
  FrameChannel channel(fd, "coordinator", config.transport);
  MIDAS_RETURN_IF_ERROR(channel.SendMagic());
  HelloMsg hello;
  hello.fingerprint = config.fingerprint;
  MIDAS_RETURN_IF_ERROR(channel.WriteFrame(EncodeHello(hello)));

  uint64_t units_completed = 0;
  std::vector<rdf::Triple> shard_facts;  // reused across hierarchy units
  const int timeout_ms =
      config.heartbeat_interval_ms > 0 ? config.heartbeat_interval_ms : -1;
  for (;;) {
    std::string payload;
    std::string error;
    switch (channel.WaitForFrame(timeout_ms, &payload, &error)) {
      case FrameChannel::Read::kTimeout: {
        HeartbeatMsg beat;
        beat.units_completed = units_completed;
        MIDAS_RETURN_IF_ERROR(channel.WriteFrame(EncodeHeartbeat(beat)));
        continue;
      }
      case FrameChannel::Read::kEof:
        // The coordinator always releases workers with an explicit Shutdown
        // frame; a bare EOF means it died (crash, SIGKILL, network death).
        // Surface that as an error so the CLI exits nonzero and whatever
        // supervises this worker restarts or alerts instead of treating an
        // orphaned worker as a finished one.
        MIDAS_LOG(Warning)
            << "dist: coordinator lost (channel closed without Shutdown)";
        return Status::IoError("coordinator lost: channel closed without Shutdown");
      case FrameChannel::Read::kCorrupt:
        return Status::Corruption("worker channel corrupt: " + error);
      case FrameChannel::Read::kError:
        // ECONNRESET and friends: the coordinator (or the path to it) died.
        MIDAS_LOG(Warning) << "dist: coordinator lost (" << error << ")";
        return Status::IoError("coordinator lost: " + error);
      case FrameChannel::Read::kNeedMore:
        continue;  // not produced by WaitForFrame; defensive
      case FrameChannel::Read::kFrame:
        break;
    }

    const StatusOr<MessageKind> kind = PeekKind(payload);
    if (!kind.ok()) return kind.status();
    if (*kind == MessageKind::kShutdown) return DecodeShutdown(payload);
    if (*kind != MessageKind::kWorkAssign) {
      return Status::Corruption("unexpected worker-bound message kind");
    }
    WorkAssignMsg assign;
    MIDAS_RETURN_IF_ERROR(DecodeWorkAssign(payload, dict, &assign));
    core::SourceInput input;
    MIDAS_RETURN_IF_ERROR(
        ShardFacts(*config.corpus, assign, &shard_facts, &input.facts));

    // Machine-loss injection point: keyed by (url, assignment) so the
    // crash matrix can kill exactly the first execution of a unit and let
    // its re-assignment complete. _exit models SIGKILL — no unwinding, no
    // result frame, the coordinator just sees EOF.
#ifdef MIDAS_FAULT_INJECTION
    if (MIDAS_FAULT_SHOULD_CORRUPT(
            fault::kSiteWorkerCrash,
            assign.url + "#" + std::to_string(assign.assignment))) {
      MIDAS_LOG(Warning) << "dist: injected worker_crash on " << assign.url
                         << " (assignment " << assign.assignment << ")";
      ::_exit(137);
    }
#endif

    input.url = assign.url;
    if (assign.consolidate) {
      for (const auto& cs : assign.child_slices) {
        input.seeds.push_back(cs.properties);
      }
    }

    // Keep heartbeating while the detector runs: a unit can legitimately
    // take longer than the coordinator's liveness deadline, and silence
    // during execution would read as death. The beater is joined before the
    // channel is touched again below, so channel use stays single-threaded
    // (writes ordered by the join, not a lock).
    std::thread beater;
    std::mutex beat_mu;
    std::condition_variable beat_cv;
    bool beat_done = false;
    if (config.heartbeat_interval_ms > 0) {
      beater = std::thread([&] {
        std::unique_lock<std::mutex> lock(beat_mu);
        while (!beat_cv.wait_for(
            lock, std::chrono::milliseconds(config.heartbeat_interval_ms),
            [&] { return beat_done; })) {
          HeartbeatMsg beat;
          beat.units_completed = units_completed;
          lock.unlock();
          // Failures here mean the coordinator is gone; the result write
          // below will hit the same error and surface it.
          (void)channel.WriteFrame(EncodeHeartbeat(beat));
          lock.lock();
        }
      });
    }
    core::ShardDetectResult detected = core::DetectShardWithRetry(
        *config.detector, *config.kb, &input, config.detect);
    if (beater.joinable()) {
      {
        std::lock_guard<std::mutex> lock(beat_mu);
        beat_done = true;
      }
      beat_cv.notify_all();
      beater.join();
    }

    WorkResultMsg result;
    result.unit = assign.unit;
    result.assignment = assign.assignment;
    result.status = detected.status;
    result.attempts = static_cast<uint32_t>(detected.attempts);
    result.error = std::move(detected.error);
    result.slices =
        assign.consolidate
            ? core::ConsolidateSlices(std::move(detected.slices),
                                      std::move(assign.child_slices))
            : std::move(detected.slices);
    MIDAS_RETURN_IF_ERROR(channel.WriteFrame(EncodeWorkResult(result, dict)));
    ++units_completed;
    MIDAS_OBS_ADD(UnitsCounter(), 1);
  }
}

}  // namespace dist
}  // namespace midas

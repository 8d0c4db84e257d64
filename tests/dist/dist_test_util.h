// Shared harness for the midas::dist test suites: a deterministic corpus +
// detector bundle, a self-forking coordinator runner, and the bit-identity
// digest. Every run gets a FRESH harness (own dictionary, own detector):
// the detector's internal thread pool is created lazily on first Detect,
// and forking workers after a previous in-process run would hand the
// children a pool whose threads do not exist in their address space.
// Identical fill sequences intern identical term ids, so digests compare
// across harnesses.

#ifndef MIDAS_TESTS_DIST_DIST_TEST_UTIL_H_
#define MIDAS_TESTS_DIST_DIST_TEST_UTIL_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "midas/core/framework.h"
#include "midas/core/midas_alg.h"
#include "midas/dist/coordinator.h"
#include "midas/dist/worker.h"
#include "midas/rdf/dictionary.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/util/status.h"
#include "midas/web/web_source.h"

namespace midas {
namespace dist {
namespace tests {

/// Deterministic multi-host corpus with enough shards for a crash matrix:
/// `hosts` x `sections` x `pages`, each page carrying a few facts whose
/// property values vary by section (so consolidation keeps real choices to
/// make at every level).
inline void FillWideCorpus(web::Corpus* corpus, int hosts = 2,
                           int sections = 3, int pages = 2,
                           int entities = 4) {
  for (int h = 0; h < hosts; ++h) {
    for (int s = 0; s < sections; ++s) {
      for (int p = 0; p < pages; ++p) {
        const std::string url = "http://host" + std::to_string(h) +
                                ".com/sec" + std::to_string(s) + "/p" +
                                std::to_string(p) + ".htm";
        for (int e = 0; e < entities; ++e) {
          const std::string subj = "e" + std::to_string(h) + "_" +
                                   std::to_string(s) + "_" +
                                   std::to_string(p) + "_" + std::to_string(e);
          corpus->AddFactRaw(url, subj, "cat", "kind" + std::to_string(s));
          if (e % 2 == 0) {
            corpus->AddFactRaw(url, subj, "origin",
                               "host" + std::to_string(h));
          }
        }
      }
    }
  }
}

/// The bit-identity digest: every user-visible field of a run, with slice
/// profits compared as exact bit patterns rather than decimal renderings.
struct RunDigest {
  std::vector<std::string> slice_keys;
  std::vector<std::string> source_keys;
  bool partial = false;

  bool operator==(const RunDigest& other) const = default;
};

inline RunDigest Digest(const core::FrameworkResult& result) {
  RunDigest digest;
  for (const auto& s : result.slices) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(s.profit));
    std::memcpy(&bits, &s.profit, sizeof(bits));
    std::string key = s.source_url + "|" + std::to_string(s.num_facts) + "|" +
                      std::to_string(s.num_new_facts) + "|" +
                      std::to_string(bits);
    for (const auto& p : s.properties) {
      key += "|c" + std::to_string(p.predicate) + ":" +
             std::to_string(p.value);
    }
    for (const auto e : s.entities) key += "|e" + std::to_string(e);
    for (const auto& f : s.facts) {
      key += "|t" + std::to_string(f.subject) + "," +
             std::to_string(f.predicate) + "," + std::to_string(f.object);
    }
    digest.slice_keys.push_back(std::move(key));
  }
  for (const auto& sr : result.sources) {
    digest.source_keys.push_back(sr.url + "|" + SourceStatusName(sr.status) +
                                 "|" + std::to_string(sr.attempts) + "|" +
                                 sr.error);
  }
  digest.partial = result.partial;
  return digest;
}

/// One run's worth of state. Build, call RunBaseline OR RunDist once, drop.
class DistHarness {
 public:
  explicit DistHarness(const std::function<void(web::Corpus*)>& fill = {})
      : dict_(std::make_shared<rdf::Dictionary>()),
        corpus_(dict_),
        kb_(dict_) {
    if (fill) {
      fill(&corpus_);
    } else {
      FillWideCorpus(&corpus_);
    }
    core::MidasOptions alg_options;
    alg_options.cost_model = core::CostModel::RunningExample();
    alg_ = std::make_unique<core::MidasAlg>(alg_options);
  }

  web::Corpus& corpus() { return corpus_; }
  const rdf::Dictionary* dict() const { return dict_.get(); }
  core::MidasAlg* alg() { return alg_.get(); }
  rdf::KnowledgeBase& kb() { return kb_; }

  core::FrameworkResult RunBaseline(core::FrameworkOptions fw) {
    return core::MidasFramework(alg_.get(), fw).Run(corpus_, kb_);
  }

  struct DistRun {
    Status start_status = Status::OK();
    core::FrameworkResult result;
    DistCoordinator::Stats stats;
  };

  /// Runs the framework with a self-forking DistCoordinator as executor.
  /// `on_unit(coordinator, units_done)` is the crash-matrix hook — note
  /// units_done is ROUND-local (it resets every round).
  DistRun RunDist(
      core::FrameworkOptions fw, DistOptions dopts,
      const std::function<void(DistCoordinator&, size_t)>& on_unit = nullptr,
      int heartbeat_ms = 0) {
    const uint64_t fingerprint = core::ComputeRunFingerprint(corpus_, fw);
    core::ShardDetectOptions detect;
    detect.source_deadline_ms = fw.source_deadline_ms;
    detect.max_retries = fw.max_retries;
    detect.retry_backoff_ms = fw.retry_backoff_ms;
    detect.run_seed = fw.run_seed;
    dopts.fingerprint = fingerprint;
    if (!dopts.worker_main) {
      dopts.worker_main = [this, detect, fingerprint, heartbeat_ms](int fd) {
        WorkerConfig config;
        config.corpus = &corpus_;
        config.detector = alg_.get();
        config.kb = &kb_;
        config.detect = detect;
        config.fingerprint = fingerprint;
        config.heartbeat_interval_ms = heartbeat_ms;
        (void)RunWorkerLoop(fd, config);
      };
    }
    DistCoordinator* raw = nullptr;
    if (on_unit) {
      dopts.on_unit_done = [&raw, on_unit](size_t n) { on_unit(*raw, n); };
    }
    DistCoordinator coordinator(dict_.get(), std::move(dopts));
    raw = &coordinator;
    DistRun run;
    run.start_status = coordinator.Start();
    if (!run.start_status.ok()) {
      run.stats = coordinator.stats();
      return run;
    }
    fw.executor = &coordinator;
    run.result = core::MidasFramework(alg_.get(), fw).Run(corpus_, kb_);
    coordinator.Shutdown();
    run.stats = coordinator.stats();
    return run;
  }

 private:
  std::shared_ptr<rdf::Dictionary> dict_;
  web::Corpus corpus_;
  rdf::KnowledgeBase kb_;
  std::unique_ptr<core::MidasAlg> alg_;
};

}  // namespace tests
}  // namespace dist
}  // namespace midas

#endif  // MIDAS_TESTS_DIST_DIST_TEST_UTIL_H_

// Bit-identity acceptance for multi-process execution (ISSUE 8 tentpole):
// a DistCoordinator with N forked workers (N in {1, 4}) must produce
// slices, profits (exact bit patterns), and per-source reports identical
// to the in-process framework on the same seed — in hierarchy mode, in the
// per-source ablation, and under an injected flaky detector. Also pins
// worker fingerprint and protocol rejection, idle heartbeats, Start()'s
// wait for self-forked Hellos, and its argument validation.

#include "midas/dist/coordinator.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "common/test_dir.h"
#include "dist/dist_test_util.h"
#include "midas/core/framework.h"
#include "midas/dist/channel.h"
#include "midas/dist/wire.h"
#include "midas/fault/fault.h"

namespace midas {
namespace dist {
namespace {

using tests::Digest;
using tests::DistHarness;
using tests::RunDigest;

core::FrameworkOptions BaseOptions(bool hierarchy = true) {
  core::FrameworkOptions fw;
  fw.use_hierarchy_rounds = hierarchy;
  fw.run_seed = 17;
  return fw;
}

/// Connects to a coordinator's unix socket, retrying while it binds.
int ConnectUnix(const std::string& sock_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock_path.c_str(), sizeof(addr.sun_path) - 1);
  for (int i = 0; i < 100; ++i) {
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "could not connect to " << sock_path;
  return fd;
}

/// A worker that says Hello with `fingerprint` and then holds the
/// connection until the coordinator releases it.
void GenuineWorker(const std::string& sock_path, uint64_t fingerprint) {
  FrameChannel channel(ConnectUnix(sock_path), "genuine");
  ASSERT_TRUE(channel.SendMagic().ok());
  HelloMsg hello;
  hello.fingerprint = fingerprint;
  ASSERT_TRUE(channel.WriteFrame(EncodeHello(hello)).ok());
  std::string payload, error;
  (void)channel.WaitForFrame(10'000, &payload, &error);  // Shutdown/EOF
}

class DistExecutorTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::FaultInjector::Global().Disarm(); }
};

TEST_F(DistExecutorTest, OneWorkerBitIdenticalToInProcess) {
  const core::FrameworkResult baseline =
      DistHarness().RunBaseline(BaseOptions());
  DistHarness harness;
  DistOptions dopts;
  dopts.num_workers = 1;
  const DistHarness::DistRun run = harness.RunDist(BaseOptions(), dopts);
  ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
  EXPECT_EQ(Digest(run.result), Digest(baseline));
  EXPECT_EQ(run.result.stats.shards_processed,
            baseline.stats.shards_processed);
  EXPECT_EQ(run.stats.results, baseline.stats.shards_processed);
  EXPECT_EQ(run.stats.assigns, run.stats.results);
  EXPECT_EQ(run.stats.worker_losses, 0u);
  EXPECT_EQ(run.stats.units_failed, 0u);
}

TEST_F(DistExecutorTest, FourWorkersBitIdenticalToInProcess) {
  const RunDigest baseline = Digest(DistHarness().RunBaseline(BaseOptions()));
  DistHarness harness;
  DistOptions dopts;
  dopts.num_workers = 4;
  const DistHarness::DistRun run = harness.RunDist(BaseOptions(), dopts);
  ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
  EXPECT_EQ(Digest(run.result), baseline);
  EXPECT_EQ(run.stats.worker_losses, 0u);
}

TEST_F(DistExecutorTest, AblationModeBitIdenticalToInProcess) {
  const RunDigest baseline =
      Digest(DistHarness().RunBaseline(BaseOptions(false)));
  DistHarness harness;
  DistOptions dopts;
  dopts.num_workers = 4;
  const DistHarness::DistRun run = harness.RunDist(BaseOptions(false), dopts);
  ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
  EXPECT_EQ(Digest(run.result), baseline);
}

#ifdef MIDAS_FAULT_INJECTION
// The retry/failure path must distribute bit-identically too: detector
// throws are keyed `url#attempt` and jitter derives from run_seed, so a
// worker process makes exactly the decisions the in-process pool would.
// Reports (status, attempts, error text) are part of the digest.
TEST_F(DistExecutorTest, FlakyDetectorParity) {
  const char kSpec[] = "site=detector,rate=0.3,seed=42";
  RunDigest baseline;
  {
    fault::ScopedFaultSpec armed(kSpec);
    core::FrameworkOptions fw = BaseOptions();
    fw.retry_backoff_ms = 0;
    baseline = Digest(DistHarness().RunBaseline(fw));
  }
  {
    // Armed BEFORE Start(): forked workers inherit the armed spec.
    fault::ScopedFaultSpec armed(kSpec);
    DistHarness harness;
    DistOptions dopts;
    dopts.num_workers = 4;
    core::FrameworkOptions fw = BaseOptions();
    fw.retry_backoff_ms = 0;
    const DistHarness::DistRun run = harness.RunDist(fw, dopts);
    ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
    EXPECT_EQ(Digest(run.result), baseline);
  }
}
#endif  // MIDAS_FAULT_INJECTION

// An idle worker announces liveness between assignments; the coordinator
// counts the beats. One unit and two workers guarantees an idle worker
// while the other detects (slowed so beats have time to land).
#ifdef MIDAS_FAULT_INJECTION
TEST_F(DistExecutorTest, IdleWorkersHeartbeat) {
  fault::ScopedFaultSpec slow("site=slow_shard,rate=1,delay_ms=150");
  DistHarness harness([](web::Corpus* corpus) {
    for (int i = 0; i < 4; ++i) {
      corpus->AddFactRaw("http://one.com/p.htm", "e" + std::to_string(i),
                         "cat", "rocket");
    }
  });
  core::FrameworkOptions fw = BaseOptions(false);
  DistOptions dopts;
  dopts.num_workers = 2;
  dopts.poll_interval_ms = 5;
  const DistHarness::DistRun run =
      harness.RunDist(fw, dopts, nullptr, /*heartbeat_ms=*/5);
  ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
  EXPECT_GE(run.stats.heartbeats, 1u);
  EXPECT_EQ(run.stats.units_failed, 0u);
}
#endif  // MIDAS_FAULT_INJECTION

TEST_F(DistExecutorTest, StartValidatesOptions) {
  rdf::Dictionary dict;
  {
    DistCoordinator coordinator(&dict, DistOptions{});
    const Status status = coordinator.Start();
    EXPECT_FALSE(status.ok());  // neither self-fork nor external configured
  }
  {
    DistOptions dopts;
    dopts.num_workers = 2;  // but no worker_main
    DistCoordinator coordinator(&dict, dopts);
    EXPECT_FALSE(coordinator.Start().ok());
  }
  {
    DistOptions dopts;
    dopts.listen_path = "/tmp/nonexistent-dir-midas-test/x.sock";
    dopts.accept_timeout_ms = 50;
    DistCoordinator coordinator(&dict, dopts);
    EXPECT_FALSE(coordinator.Start().ok());  // bind fails
  }
}

TEST_F(DistExecutorTest, ExternalStartTimesOutWithoutWorkers) {
  rdf::Dictionary dict;
  DistOptions dopts;
  dopts.listen_path = midas::tests::TestDir() + "/timeout.sock";
  dopts.min_workers = 1;
  dopts.accept_timeout_ms = 100;
  DistCoordinator coordinator(&dict, dopts);
  const Status status = coordinator.Start();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("timed out"), std::string::npos);
}

// External mode: a worker whose Hello announces the wrong fingerprint (it
// loaded a different corpus/seed) is sent Shutdown and never joins; a
// correct worker connecting afterwards satisfies min_workers.
TEST_F(DistExecutorTest, FingerprintMismatchRejectsWorker) {
  const std::string sock_path =
      midas::tests::TestDir() + "/reject.sock";
  rdf::Dictionary dict;
  DistOptions dopts;
  dopts.listen_path = sock_path;
  dopts.min_workers = 1;
  dopts.accept_timeout_ms = 10'000;
  dopts.fingerprint = 0xfeedface;
  DistCoordinator coordinator(&dict, dopts);

  std::thread clients([&] {
    // Impostor first.
    {
      FrameChannel channel(ConnectUnix(sock_path), "impostor");
      ASSERT_TRUE(channel.SendMagic().ok());
      HelloMsg hello;
      hello.fingerprint = 0xbad;
      ASSERT_TRUE(channel.WriteFrame(EncodeHello(hello)).ok());
      std::string payload, error;
      const FrameChannel::Read read =
          channel.WaitForFrame(5000, &payload, &error);
      // Shutdown frame, or EOF if the close raced the frame.
      if (read == FrameChannel::Read::kFrame) {
        EXPECT_EQ(*PeekKind(payload), MessageKind::kShutdown);
      } else {
        EXPECT_EQ(read, FrameChannel::Read::kEof);
      }
    }
    // Then the genuine worker; hold the connection until released.
    GenuineWorker(sock_path, 0xfeedface);
  });

  const Status status = coordinator.Start();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(coordinator.stats().rejected_workers, 1u);
  EXPECT_EQ(coordinator.live_workers(), 1u);
  coordinator.Shutdown();
  clients.join();
}

// A peer from before v4 announces protocol 3 with a longer Hello body. It
// is rejected by its version (named in the log), not lost as a corrupt
// stream; a current worker then satisfies min_workers.
TEST_F(DistExecutorTest, OlderProtocolPeerIsRejectedByVersion) {
  const std::string sock_path = midas::tests::TestDir() + "/v3.sock";
  rdf::Dictionary dict;
  DistOptions dopts;
  dopts.listen_path = sock_path;
  dopts.min_workers = 1;
  dopts.accept_timeout_ms = 10'000;
  dopts.fingerprint = 0xfeedface;
  DistCoordinator coordinator(&dict, dopts);

  std::thread clients([&] {
    {
      FrameChannel channel(ConnectUnix(sock_path), "v3-peer");
      ASSERT_TRUE(channel.SendMagic().ok());
      // v3 Hello: 'h' protocol:u32 fingerprint:u64 corpus_hash:u64.
      std::string hello(1, 'h');
      const auto append_le = [&hello](uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
          hello.push_back(static_cast<char>(v >> (8 * i)));
        }
      };
      append_le(3, 4);
      append_le(0xfeedface, 8);
      append_le(0x1234, 8);
      ASSERT_TRUE(channel.WriteFrame(hello).ok());
      std::string payload, error;
      (void)channel.WaitForFrame(5000, &payload, &error);  // Shutdown/EOF
    }
    GenuineWorker(sock_path, 0xfeedface);
  });

  ::testing::internal::CaptureStderr();
  const Status status = coordinator.Start();
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(coordinator.stats().rejected_workers, 1u);
  EXPECT_EQ(coordinator.stats().worker_losses, 0u);
  EXPECT_NE(log.find("protocol 3"), std::string::npos) << log;
  coordinator.Shutdown();
  clients.join();
}

// Self-fork mode: Start() returns only once every forked worker has said
// Hello, so the first round can schedule each of them.
TEST_F(DistExecutorTest, SelfForkStartWaitsForEveryHello) {
  DistHarness harness;
  const uint64_t fingerprint =
      core::ComputeRunFingerprint(harness.corpus(), BaseOptions());
  DistOptions dopts;
  dopts.num_workers = 2;
  dopts.fingerprint = fingerprint;
  DistHarness* h = &harness;
  dopts.worker_main = [h, fingerprint](int fd) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    WorkerConfig config;
    config.corpus = &h->corpus();
    config.detector = h->alg();
    config.kb = &h->kb();
    config.fingerprint = fingerprint;
    config.heartbeat_interval_ms = 0;
    (void)RunWorkerLoop(fd, config);
  };
  DistCoordinator coordinator(harness.dict(), std::move(dopts));
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(coordinator.Start().ok());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(300));
  EXPECT_EQ(coordinator.live_workers(), 2u);
  coordinator.Shutdown();
}

}  // namespace
}  // namespace dist
}  // namespace midas

// End-to-end stall drill: a slow-shard fault wedges one shard's worker
// with requests queued behind it, the watchdog declares exactly one stall
// episode, shard and cluster health degrade, a full flight-recorder dump
// set lands on disk — and when the fault clears, recovery fires, health
// restores, and detection re-arms for the next episode.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../testing/test_data.h"
#include "cluster/shard_router.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "serve/checkpoint.h"

namespace cascn::cluster {
namespace {

using serve::Health;
using serve::Request;
using serve::ServeResponse;
using serve::Wait;

class ClusterWatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Get().Clear();
    checkpoint_ = ::testing::TempDir() + "watchdog_ckpt.bin";
    CascnModel model(testing::TinyCascnConfig());
    model.set_output_offset(2.0);
    ASSERT_TRUE(serve::SaveCascnCheckpoint(checkpoint_, model).ok());
  }

  void TearDown() override {
    fault::FaultRegistry::Get().Clear();
    obs::Tracer::Get().DisableSampling();  // Watchdog::Start() enables it
    std::remove(checkpoint_.c_str());
  }

  static bool WaitFor(const std::function<bool()>& done, double seconds) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  std::string checkpoint_;
};

TEST_F(ClusterWatchdogTest, SlowShardStallDegradesDumpsAndRecovers) {
  ShardRouterOptions options;
  options.num_shards = 2;
  options.shard.num_workers = 1;
  // One request per micro-batch, so the pile-up behind the wedged predict
  // stays IN the queue (busy) instead of being drained into one batch.
  options.shard.max_batch = 1;
  options.shard.sessions.observation_window = 60.0;
  // Fresh dir per run: dumps APPEND, so stale files from an earlier run
  // would confuse the seq-00001 assertions below.
  options.flight_dir = ::testing::TempDir() + "watchdog_flight";
  CASCN_CHECK(std::system(("rm -rf " + options.flight_dir + " && mkdir -p " +
                           options.flight_dir)
                              .c_str()) == 0);
  auto router = ShardRouter::CreateFromCheckpoint(options, checkpoint_);
  ASSERT_TRUE(router.ok()) << router.status();

  // One session, so every request lands on one known shard.
  ASSERT_TRUE(
      Wait((*router)->Submit("acme", Request::Create("sess", 1))).status.ok());
  ASSERT_TRUE(
      Wait((*router)->Submit("acme", Request::Append("sess", 2, 0, 1.0)))
          .status.ok());
  const int victim = (*router)->ShardOf("sess");
  ASSERT_GE(victim, 0);

  obs::WatchdogOptions watchdog_options;
  watchdog_options.poll_ms = 5.0;
  watchdog_options.stall_ms = 50.0;
  obs::Watchdog watchdog(watchdog_options);
  (*router)->RegisterWatchdogTargets(watchdog);
  watchdog.Start();

  // Wedge the victim's single worker for 800 ms per predict and pile
  // requests up behind it: progress frozen + queue busy = stall.
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(SlowShardFaultPoint(victim) + "=always@800")
                  .ok());
  std::vector<std::future<ServeResponse>> pending;
  for (int i = 0; i < 3; ++i) {
    auto submitted = (*router)->Submit("acme", Request::Predict("sess"));
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    pending.push_back(std::move(submitted).value());
  }

  ASSERT_TRUE(WaitFor([&] { return watchdog.stalls_total() >= 1; }, 10.0))
      << "watchdog never declared the stall";
  // Latched: the persisting stall must not re-fire while the worker is
  // still wedged.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(watchdog.stalls_total(), 1u);

  // The stall degraded the shard (and with it the cluster).
  serve::PredictionService* shard = (*router)->shard(victim);
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->health(), Health::kDegraded);
  EXPECT_EQ((*router)->ClusterHealth(), Health::kDegraded);

  // The on_stall hook wrote a sequenced on-demand dump set.
  EXPECT_GE((*router)->on_demand_dump_count(), 1u);
  const std::string dump_path = StrFormat(
      "%s/flight_shard_%d.00001.jsonl", options.flight_dir.c_str(), victim);
  std::ifstream dump(dump_path);
  ASSERT_TRUE(dump.good()) << dump_path;
  std::stringstream buffer;
  buffer << dump.rdbuf();
  EXPECT_NE(buffer.str().find("watchdog_stall"), std::string::npos);

  // Clear the fault; the wedged predict finishes, queued ones drain fast,
  // and the heartbeat moving again fires recovery + restores health.
  fault::FaultRegistry::Get().Clear();
  for (auto& future : pending) future.get();
  ASSERT_TRUE(WaitFor([&] { return watchdog.recoveries_total() >= 1; }, 10.0))
      << "watchdog never observed the recovery";
  ASSERT_TRUE(WaitFor([&] { return shard->health() == Health::kHealthy; },
                      10.0))
      << "recovery must restore the health the watchdog took away";
  EXPECT_EQ(watchdog.stalls_total(), 1u) << "no spurious second episode";

  // Re-armed: a fresh wedge is a NEW episode.
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(SlowShardFaultPoint(victim) + "=always@800")
                  .ok());
  std::vector<std::future<ServeResponse>> second;
  for (int i = 0; i < 3; ++i) {
    auto submitted = (*router)->Submit("acme", Request::Predict("sess"));
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    second.push_back(std::move(submitted).value());
  }
  ASSERT_TRUE(WaitFor([&] { return watchdog.stalls_total() >= 2; }, 10.0))
      << "detection must re-arm after recovery";
  fault::FaultRegistry::Get().Clear();
  for (auto& future : second) future.get();
  watchdog.Stop();
}

TEST_F(ClusterWatchdogTest, IdleClusterNeverStalls) {
  ShardRouterOptions options;
  options.num_shards = 2;
  options.shard.num_workers = 1;
  options.shard.sessions.observation_window = 60.0;
  auto router = ShardRouter::CreateFromCheckpoint(options, checkpoint_);
  ASSERT_TRUE(router.ok()) << router.status();

  obs::WatchdogOptions watchdog_options;
  watchdog_options.poll_ms = 2.0;
  watchdog_options.stall_ms = 10.0;
  obs::Watchdog watchdog(watchdog_options);
  (*router)->RegisterWatchdogTargets(watchdog);
  watchdog.Start();
  // Far longer than stall_ms with zero traffic: empty queues re-arm
  // continuously, so nothing may fire.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  watchdog.Stop();
  EXPECT_EQ(watchdog.stalls_total(), 0u);
  EXPECT_EQ((*router)->ClusterHealth(), Health::kHealthy);
}

}  // namespace
}  // namespace cascn::cluster

// Self-healing serving under injected faults: per-request deadlines expire
// cleanly, transient checkpoint-load failures are retried away, and a hot
// reload of a corrupt checkpoint leaves the old version serving with the
// service marked Degraded.

#include "serve/prediction_service.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../testing/test_data.h"
#include "fault/fault.h"
#include "serve/checkpoint.h"

namespace cascn::serve {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "cascn_fault_svc_" + name + ".ckpt";
}

/// Writes a deterministic tiny CasCN checkpoint with the given calibration
/// offset (distinct offsets make reload visible in predictions).
void WriteTestCheckpoint(const std::string& path, double offset) {
  CascnConfig config = testing::TinyCascnConfig();
  CascnModel model(config);
  model.set_output_offset(offset);
  ASSERT_TRUE(SaveCascnCheckpoint(path, model).ok());
}

class ServiceFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::Get().Clear(); }
  void TearDown() override { fault::FaultRegistry::Get().Clear(); }
};

TEST_F(ServiceFaultTest, SlowPredictTripsDeadlines) {
  const std::string path = TempPath("deadline");
  WriteTestCheckpoint(path, 2.0);
  ServiceOptions options;
  options.num_workers = 1;
  options.sessions.observation_window = 60.0;
  options.default_deadline_ms = 5.0;
  auto service = PredictionService::CreateFromCheckpoint(options, path);
  ASSERT_TRUE(service.ok()) << service.status();
  // Build the session before arming the fault so setup cannot expire.
  ASSERT_TRUE(
      Wait(service.value()->Submit(Request::Create("s", 1))).status.ok());
  ASSERT_TRUE(Wait(service.value()->Submit(Request::Append("s", 2, 0, 1.0)))
                  .status.ok());
  ASSERT_TRUE(Wait(service.value()->Submit(Request::Append("s", 3, 0, 2.0)))
                  .status.ok());

  // Every predict now stalls 50 ms inside the worker; with a 5 ms default
  // deadline, requests queued behind the first expire before execution.
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(std::string(kFaultServeSlowPredict) +
                             "=always@50")
                  .ok());
  std::vector<std::future<ServeResponse>> pending;
  for (int i = 0; i < 8; ++i) {
    auto submitted = service.value()->Submit(Request::Predict("s"));
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    pending.push_back(std::move(submitted).value());
  }
  // A request that explicitly opts out of the deadline always executes.
  auto undeadlined =
      service.value()->Submit(Request::Predict("s", /*deadline_ms=*/-1.0));
  ASSERT_TRUE(undeadlined.ok());

  int expired = 0;
  for (auto& future : pending) {
    const ServeResponse response = future.get();
    if (!response.status.ok()) {
      EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded)
          << response.status;
      EXPECT_NE(response.status.message().find("deadline"), std::string::npos);
      ++expired;
    }
  }
  EXPECT_GT(expired, 0);
  const ServeResponse survivor = undeadlined.value().get();
  EXPECT_TRUE(survivor.status.ok()) << survivor.status;
  EXPECT_TRUE(std::isfinite(survivor.log_prediction));

  fault::FaultRegistry::Get().Clear();
  const auto snap = service.value()->metrics().TakeSnapshot();
  EXPECT_EQ(snap.counter(Counter::kDeadlineExceeded),
            static_cast<uint64_t>(expired));
  service.value()->Shutdown();
  std::remove(path.c_str());
}

TEST_F(ServiceFaultTest, TransientLoadFailureIsRetriedAway) {
  const std::string path = TempPath("retry");
  WriteTestCheckpoint(path, 2.0);
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(std::string(kFaultCheckpointLoadFail) + "=nth:1")
                  .ok());
  ServiceOptions options;
  options.num_workers = 2;
  options.sessions.observation_window = 60.0;
  options.load_retries = 2;
  options.load_retry_backoff_ms = 1.0;
  auto service = PredictionService::CreateFromCheckpoint(options, path);
  fault::FaultRegistry::Get().Clear();
  // The first load attempt failed (injected), the retry healed it.
  ASSERT_TRUE(service.ok()) << service.status();
  EXPECT_EQ(service.value()->metrics().TakeSnapshot().counter(
                Counter::kLoadRetries),
            1u);
  EXPECT_EQ(service.value()->health(), Health::kHealthy);
  EXPECT_TRUE(
      Wait(service.value()->Submit(Request::Create("s", 1))).status.ok());
  service.value()->Shutdown();
  std::remove(path.c_str());
}

TEST_F(ServiceFaultTest, RetriesDoNotMaskPersistentFailure) {
  ServiceOptions options;
  options.num_workers = 1;
  options.load_retries = 2;
  options.load_retry_backoff_ms = 1.0;
  auto service = PredictionService::CreateFromCheckpoint(
      options, "/nonexistent/path/model.ckpt");
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kIoError);
}

TEST_F(ServiceFaultTest, ReloadOfCorruptCheckpointKeepsOldVersionServing) {
  const std::string good = TempPath("reload_good");
  const std::string better = TempPath("reload_better");
  const std::string corrupt = TempPath("reload_corrupt");
  WriteTestCheckpoint(good, 2.0);
  WriteTestCheckpoint(better, 5.0);
  {
    std::ofstream out(corrupt, std::ios::binary | std::ios::trunc);
    out << "garbage, not a checkpoint";
  }

  ServiceOptions options;
  options.num_workers = 2;
  options.sessions.observation_window = 60.0;
  auto service = PredictionService::CreateFromCheckpoint(options, good);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(
      Wait(service.value()->Submit(Request::Create("s", 1))).status.ok());
  ASSERT_TRUE(Wait(service.value()->Submit(Request::Append("s", 2, 0, 1.0)))
                  .status.ok());
  const ServeResponse before =
      Wait(service.value()->Submit(Request::Predict("s")));
  ASSERT_TRUE(before.status.ok()) << before.status;

  // Reloading a corrupt checkpoint must fail, degrade health, and leave the
  // old replicas serving identical predictions.
  const Status bad = service.value()->ReloadCheckpoint(corrupt);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(service.value()->health(), Health::kDegraded);
  const ServeResponse still =
      Wait(service.value()->Submit(Request::Predict("s")));
  ASSERT_TRUE(still.status.ok()) << still.status;
  EXPECT_DOUBLE_EQ(still.log_prediction, before.log_prediction);

  // A good reload swaps versions, invalidates cached predictions, and
  // restores health.
  ASSERT_TRUE(service.value()->ReloadCheckpoint(better).ok());
  EXPECT_EQ(service.value()->health(), Health::kHealthy);
  const ServeResponse after =
      Wait(service.value()->Submit(Request::Predict("s")));
  ASSERT_TRUE(after.status.ok()) << after.status;
  // Same session, new calibration offset: the cached prediction must not
  // have survived the swap.
  EXPECT_DOUBLE_EQ(after.log_prediction, before.log_prediction + 3.0);

  const auto snap = service.value()->metrics().TakeSnapshot();
  EXPECT_EQ(snap.counter(Counter::kReloads), 1u);
  EXPECT_EQ(snap.counter(Counter::kReloadFailures), 1u);
  EXPECT_EQ(snap.health, Health::kHealthy);
  service.value()->Shutdown();
  std::remove(good.c_str());
  std::remove(better.c_str());
  std::remove(corrupt.c_str());
}

TEST_F(ServiceFaultTest, ReloadFailureIsCountedInRetries) {
  const std::string path = TempPath("reload_retry");
  WriteTestCheckpoint(path, 2.0);
  ServiceOptions options;
  options.num_workers = 1;
  options.load_retries = 1;
  options.load_retry_backoff_ms = 1.0;
  options.sessions.observation_window = 60.0;
  auto service = PredictionService::CreateFromCheckpoint(options, path);
  ASSERT_TRUE(service.ok()) << service.status();

  // Reload hits a transient failure on its first load; the retry heals it.
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(std::string(kFaultCheckpointLoadFail) + "=nth:1")
                  .ok());
  EXPECT_TRUE(service.value()->ReloadCheckpoint(path).ok());
  fault::FaultRegistry::Get().Clear();
  const auto snap = service.value()->metrics().TakeSnapshot();
  EXPECT_GE(snap.counter(Counter::kLoadRetries), 1u);
  EXPECT_EQ(snap.counter(Counter::kReloads), 1u);
  EXPECT_EQ(service.value()->health(), Health::kHealthy);
  service.value()->Shutdown();
  std::remove(path.c_str());
}

TEST_F(ServiceFaultTest, HealthNamesAreStable) {
  EXPECT_EQ(HealthName(Health::kHealthy), "healthy");
  EXPECT_EQ(HealthName(Health::kDegraded), "degraded");
  EXPECT_EQ(HealthName(Health::kUnhealthy), "unhealthy");
}

}  // namespace
}  // namespace cascn::serve

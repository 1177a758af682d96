// Self-healing serving under injected faults: per-request deadlines expire
// cleanly, micro-batches count their errors and cache hits exactly, and a
// checkpoint that cannot be read fails the service's creation.

#include "serve/prediction_service.h"

#include <cmath>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
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
/// offset.
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
  // Build the session before arming the fault, with no deadline, so setup
  // cannot expire however loaded the host is.
  auto setup = [&](Request request) {
    request.deadline_ms = -1.0;
    return Wait(service.value()->Submit(std::move(request))).status;
  };
  ASSERT_TRUE(setup(Request::Create("s", 1)).ok());
  ASSERT_TRUE(setup(Request::Append("s", 2, 0, 1.0)).ok());
  ASSERT_TRUE(setup(Request::Append("s", 3, 0, 2.0)).ok());

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

/// Holds the only worker of `service` inside a 200 ms predict for session
/// "held", then queues `predicts` behind it, so they drain as one batch.
/// Returns every response, the held predict's first.
std::vector<ServeResponse> PredictBehindHeldWorker(
    PredictionService& service, const std::vector<std::string>& predicts) {
  EXPECT_TRUE(Wait(service.Submit(Request::Create("held", 1))).status.ok());
  EXPECT_TRUE(fault::FaultRegistry::Get()
                  .Configure(std::string(kFaultServeSlowPredict) +
                             "=nth:1@200")
                  .ok());
  std::vector<std::future<ServeResponse>> pending;
  pending.push_back(service.Submit(Request::Predict("held")).value());
  while (service.queue_depth() > 0) std::this_thread::yield();
  for (const std::string& id : predicts)
    pending.push_back(service.Submit(Request::Predict(id)).value());
  std::vector<ServeResponse> responses;
  for (auto& future : pending) responses.push_back(future.get());
  return responses;
}

TEST_F(ServiceFaultTest, DuplicateFailedPredictsInABatchEachCountAnError) {
  const std::string path = TempPath("duplicate_errors");
  WriteTestCheckpoint(path, 2.0);
  ServiceOptions options;
  options.num_workers = 1;
  auto service = PredictionService::CreateFromCheckpoint(options, path);
  ASSERT_TRUE(service.ok()) << service.status();
  const std::vector<ServeResponse> responses =
      PredictBehindHeldWorker(*service.value(), {"ghost", "ghost"});
  EXPECT_TRUE(responses[0].status.ok()) << responses[0].status;
  EXPECT_EQ(responses[1].status.code(), StatusCode::kNotFound);
  EXPECT_EQ(responses[2].status.code(), StatusCode::kNotFound);
  const auto snap = service.value()->metrics().TakeSnapshot();
  EXPECT_EQ(snap.counter(Counter::kBatches), 1u);  // the two ghosts
  EXPECT_EQ(snap.counter(Counter::kErrors), 2u);
  EXPECT_EQ(snap.counter(Counter::kPredictionCacheHits), 0u);
  service.value()->Shutdown();
  std::remove(path.c_str());
}

TEST_F(ServiceFaultTest, DuplicatePredictsInABatchAreComputedOnce) {
  const std::string path = TempPath("duplicate_hits");
  WriteTestCheckpoint(path, 2.0);
  ServiceOptions options;
  options.num_workers = 1;
  auto service = PredictionService::CreateFromCheckpoint(options, path);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(
      Wait(service.value()->Submit(Request::Create("s", 1))).status.ok());
  const std::vector<ServeResponse> responses =
      PredictBehindHeldWorker(*service.value(), {"s", "s"});
  ASSERT_TRUE(responses[1].status.ok()) << responses[1].status;
  ASSERT_TRUE(responses[2].status.ok()) << responses[2].status;
  EXPECT_EQ(responses[1].log_prediction, responses[2].log_prediction);
  const auto snap = service.value()->metrics().TakeSnapshot();
  EXPECT_EQ(snap.counter(Counter::kBatches), 1u);
  EXPECT_EQ(snap.counter(Counter::kPredictions), 3u);
  // The second "s" is a hit on the session's cached prediction.
  EXPECT_EQ(snap.counter(Counter::kPredictionCacheHits), 1u);
  EXPECT_EQ(snap.counter(Counter::kErrors), 0u);
  service.value()->Shutdown();
  std::remove(path.c_str());
}

// A request's queue wait runs to its own start, so a micro-batch member's
// wait covers the batch-mates executed before it, and queue wait + exec is
// its whole time in the service.
TEST_F(ServiceFaultTest, QueueWaitCoversTheBatchMatesAhead) {
  const std::string path = TempPath("batch_wait");
  WriteTestCheckpoint(path, 2.0);
  ServiceOptions options;
  options.num_workers = 1;
  options.extra_predict_fault_point = "test.hold_worker";
  auto service = PredictionService::CreateFromCheckpoint(options, path);
  ASSERT_TRUE(service.ok()) << service.status();
  for (const char* id : {"held", "a", "b"})
    ASSERT_TRUE(
        Wait(service.value()->Submit(Request::Create(id, 1))).status.ok());
  // The held predict takes 40 ms; then "a" takes 200 ms while "b" waits
  // behind it in the same batch.
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure("test.hold_worker=nth:1@40," +
                             std::string(kFaultServeSlowPredict) +
                             "=nth:2@200")
                  .ok());
  auto held = service.value()->Submit(Request::Predict("held"));
  while (service.value()->queue_depth() > 0) std::this_thread::yield();
  auto a = service.value()->Submit(Request::Predict("a"));
  auto b = service.value()->Submit(Request::Predict("b"));
  EXPECT_TRUE(Wait(std::move(held)).status.ok());
  EXPECT_TRUE(Wait(std::move(a)).status.ok());
  EXPECT_TRUE(Wait(std::move(b)).status.ok());
  ASSERT_EQ(service.value()->metrics().TakeSnapshot().counter(
                Counter::kBatches),
            1u);

  const std::vector<obs::FlightRecord> records =
      service.value()->flight_recorder().Snapshot();
  ASSERT_EQ(records.size(), 6u);
  const obs::FlightRecord& earlier = records[4];
  const obs::FlightRecord& later = records[5];
  ASSERT_EQ(std::string(earlier.session), "a");
  ASSERT_EQ(std::string(later.session), "b");
  EXPECT_GE(earlier.exec_ns, uint64_t{200'000'000});
  EXPECT_GE(later.queue_wait_ns, earlier.exec_ns);
  service.value()->Shutdown();
  std::remove(path.c_str());
}

TEST_F(ServiceFaultTest, MissingCheckpointFailsCreationWithIoError) {
  ServiceOptions options;
  options.num_workers = 1;
  auto service = PredictionService::CreateFromCheckpoint(
      options, "/nonexistent/path/model.ckpt");
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kIoError);
}

TEST_F(ServiceFaultTest, HealthNamesAreStable) {
  EXPECT_EQ(HealthName(Health::kHealthy), "healthy");
  EXPECT_EQ(HealthName(Health::kDegraded), "degraded");
  EXPECT_EQ(HealthName(Health::kUnhealthy), "unhealthy");
}

}  // namespace
}  // namespace cascn::serve

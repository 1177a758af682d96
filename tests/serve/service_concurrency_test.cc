// Serial-equivalence and backpressure tests for the prediction service.
// Run with -DCASCN_SANITIZE=thread to have TSan check the locking story:
// the service's workers all run their forwards on one shared CascnModel.

#include "serve/prediction_service.h"

#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../testing/test_data.h"
#include "data/cascade_generator.h"
#include "serve/checkpoint.h"

namespace cascn::serve {
namespace {

constexpr double kWindow = 60.0;

std::string CheckpointPath() {
  return ::testing::TempDir() + "cascn_service_test.ckpt";
}

/// Writes a deterministic (untrained but seeded) tiny CasCN checkpoint.
void WriteTestCheckpoint(
    const CascnConfig& config = testing::TinyCascnConfig()) {
  CascnModel model(config);
  model.set_output_offset(2.0);
  ASSERT_TRUE(SaveCascnCheckpoint(CheckpointPath(), model).ok());
}

/// Replay material: per session, the in-window adoption events.
std::vector<std::vector<AdoptionEvent>> ReplayCascades(int count) {
  GeneratorConfig config = WeiboLikeConfig();
  config.num_cascades = count * 3;
  config.user_universe = 200;
  config.max_size = 30;
  Rng rng(7);
  std::vector<std::vector<AdoptionEvent>> replays;
  for (const Cascade& cascade : GenerateCascades(config, rng)) {
    const Cascade prefix = cascade.Prefix(kWindow);
    if (prefix.size() < 3) continue;
    replays.push_back(prefix.events());
    if (static_cast<int>(replays.size()) == count) break;
  }
  return replays;
}

/// Serial reference: one model, one session at a time.
std::vector<double> SerialPredictions(
    const std::vector<std::vector<AdoptionEvent>>& replays) {
  auto model = LoadCascnCheckpoint(CheckpointPath());
  EXPECT_TRUE(model.ok()) << model.status();
  SessionManagerOptions options;
  options.observation_window = kWindow;
  SessionManager manager(options);
  std::vector<double> predictions;
  for (size_t i = 0; i < replays.size(); ++i) {
    const std::string id = "s" + std::to_string(i);
    EXPECT_TRUE(manager.Create(id, replays[i][0].user).ok());
    for (size_t e = 1; e < replays[i].size(); ++e) {
      const AdoptionEvent& event = replays[i][e];
      EXPECT_TRUE(
          manager.Append(id, event.user, event.parents[0], event.time).ok());
    }
    predictions.push_back(manager.PredictLog(id, **model).value());
    EXPECT_TRUE(manager.Close(id).ok());
  }
  return predictions;
}

/// One CasCN variant of Table IV (or the attention-pooling extension).
struct Variant {
  const char* name;
  CascnVariant variant;
  bool attention_pooling;
};

class ServiceConcurrencyTest : public ::testing::TestWithParam<Variant> {};

// Four workers forward on the service's one model at once; every reply must
// match a serial replay through a model of its own.
TEST_P(ServiceConcurrencyTest, ParallelRepliesMatchSerialReplay) {
  CascnConfig config = testing::TinyCascnConfig();
  config.variant = GetParam().variant;
  config.attention_pooling = GetParam().attention_pooling;
  WriteTestCheckpoint(config);
  const auto replays = ReplayCascades(24);
  ASSERT_GE(replays.size(), 8u);
  const std::vector<double> expected = SerialPredictions(replays);

  ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 256;
  options.max_batch = 8;
  options.sessions.observation_window = kWindow;
  auto service = PredictionService::CreateFromCheckpoint(options,
                                                         CheckpointPath());
  ASSERT_TRUE(service.ok()) << service.status();

  // Each driver thread owns a disjoint subset of sessions but runs them
  // concurrently and interleaved (create all, then round-robin appends with
  // mid-stream predicts), so many sessions are live and in flight at once.
  constexpr int kThreads = 4;
  std::vector<double> actual(replays.size(), 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<size_t> mine;
      for (size_t i = t; i < replays.size(); i += kThreads) mine.push_back(i);
      for (size_t i : mine) {
        const ServeResponse r = Wait(service.value()->Submit(
            Request::Create("s" + std::to_string(i), replays[i][0].user)));
        ASSERT_TRUE(r.status.ok()) << r.status;
      }
      // Round-robin the appends across this thread's sessions.
      bool progressed = true;
      for (size_t step = 1; progressed; ++step) {
        progressed = false;
        for (size_t i : mine) {
          if (step >= replays[i].size()) continue;
          progressed = true;
          const AdoptionEvent& event = replays[i][step];
          const std::string id = "s" + std::to_string(i);
          const ServeResponse r = Wait(service.value()->Submit(Request::Append(
              id, event.user, event.parents[0], event.time)));
          ASSERT_TRUE(r.status.ok()) << r.status;
          if (step % 5 == 0) {
            const ServeResponse p =
                Wait(service.value()->Submit(Request::Predict(id)));
            ASSERT_TRUE(p.status.ok()) << p.status;
            ASSERT_TRUE(std::isfinite(p.log_prediction));
          }
        }
      }
      for (size_t i : mine) {
        const ServeResponse p = Wait(
            service.value()->Submit(Request::Predict("s" + std::to_string(i))));
        ASSERT_TRUE(p.status.ok()) << p.status;
        actual[i] = p.log_prediction;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_DOUBLE_EQ(actual[i], expected[i]);
  }

  const auto snap = service.value()->metrics().TakeSnapshot();
  EXPECT_GT(snap.counter(Counter::kRequestsTotal), 0u);
  EXPECT_EQ(snap.counter(Counter::kSessionsCreated), replays.size());
  EXPECT_GT(snap.counter(Counter::kPredictions), 0u);
  EXPECT_EQ(snap.counter(Counter::kErrors), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ServiceConcurrencyTest,
    ::testing::Values(
        Variant{"Default", CascnVariant::kDefault, false},
        Variant{"Gru", CascnVariant::kGru, false},
        Variant{"GcnLstm", CascnVariant::kGcnLstm, false},
        Variant{"Undirected", CascnVariant::kUndirected, false},
        Variant{"NoTimeDecay", CascnVariant::kNoTimeDecay, false},
        Variant{"AttentionPooling", CascnVariant::kDefault, true}),
    [](const ::testing::TestParamInfo<Variant>& info) {
      return std::string(info.param.name);
    });

TEST(ServiceConcurrencyTest, BackpressureRejectsWithUnavailable) {
  WriteTestCheckpoint();
  ServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.sessions.observation_window = kWindow;
  auto service = PredictionService::CreateFromCheckpoint(options,
                                                         CheckpointPath());
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(
      Wait(service.value()->Submit(Request::Create("s", 1))).status.ok());
  for (int i = 0; i < 20; ++i)
    ASSERT_TRUE(Wait(service.value()->Submit(
                         Request::Append("s", 2 + i, i / 2, 1.0 + i)))
                    .status.ok());

  // A tight submission loop against a one-slot queue must hit the wall.
  std::vector<std::future<ServeResponse>> accepted;
  bool rejected = false;
  for (int i = 0; i < 10000 && !rejected; ++i) {
    auto submitted = service.value()->Submit(Request::Predict("s"));
    if (submitted.ok()) {
      accepted.push_back(std::move(submitted).value());
    } else {
      EXPECT_EQ(submitted.status().code(), StatusCode::kUnavailable);
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected);
  for (auto& future : accepted) EXPECT_TRUE(future.get().status.ok());
  EXPECT_GT(service.value()->metrics().TakeSnapshot().counter(
                Counter::kRequestsRejected),
            0u);
}

TEST(ServiceConcurrencyTest, ShutdownDrainsInFlightWork) {
  WriteTestCheckpoint();
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 512;
  options.sessions.observation_window = kWindow;
  auto service = PredictionService::CreateFromCheckpoint(options,
                                                         CheckpointPath());
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(
      Wait(service.value()->Submit(Request::Create("s", 1))).status.ok());

  std::vector<std::future<ServeResponse>> pending;
  for (int i = 0; i < 64; ++i) {
    auto submitted = service.value()->Submit(Request::Predict("s"));
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    pending.push_back(std::move(submitted).value());
  }
  service.value()->Shutdown();
  // Every accepted request resolves: executed before shutdown (OK with a
  // finite prediction) or failed with a status that names the shutdown —
  // never a hung future or a generic rejection.
  int executed = 0, drained = 0;
  for (auto& future : pending) {
    const ServeResponse response = future.get();
    if (response.status.ok()) {
      EXPECT_TRUE(std::isfinite(response.log_prediction));
      ++executed;
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
      EXPECT_NE(response.status.message().find("shut down"),
                std::string::npos)
          << response.status;
      ++drained;
    }
  }
  EXPECT_EQ(executed + drained, 64);
  EXPECT_EQ(
      service.value()->metrics().TakeSnapshot().counter(
          Counter::kShutdownDrained),
      static_cast<uint64_t>(drained));
  EXPECT_EQ(service.value()->health(), Health::kUnhealthy);
  // New work is refused after shutdown.
  auto late = service.value()->Submit(Request::Predict("s"));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

TEST(ServiceConcurrencyTest, ShutdownIsIdempotentAndConcurrent) {
  WriteTestCheckpoint();
  ServiceOptions options;
  options.num_workers = 2;
  options.sessions.observation_window = kWindow;
  auto service = PredictionService::CreateFromCheckpoint(options,
                                                         CheckpointPath());
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(
      Wait(service.value()->Submit(Request::Create("s", 1))).status.ok());
  std::vector<std::thread> callers;
  for (int i = 0; i < 4; ++i)
    callers.emplace_back([&service] { service.value()->Shutdown(); });
  for (auto& t : callers) t.join();
  service.value()->Shutdown();  // and once more, after completion
  EXPECT_EQ(service.value()->health(), Health::kUnhealthy);
}

}  // namespace
}  // namespace cascn::serve

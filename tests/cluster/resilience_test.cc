// Resilience control plane: circuit breakers, the retry budget, the
// stale-read degraded mode, and the shard supervisor — plus
// the acceptance bar, a deterministic closed-loop drill (injected clock +
// fault seed) proving crash -> breaker -> budgeted retries -> supervised
// restart -> probation -> bit-identical predictions.

#include "cluster/resilience.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../testing/test_data.h"
#include "cluster/shard_router.h"
#include "common/logging.h"
#include "core/cascn_model.h"
#include "fault/fault.h"
#include "serve/checkpoint.h"

namespace cascn::cluster {
namespace {

using serve::Health;
using serve::PredictionService;
using serve::Request;
using serve::ServeResponse;
using serve::Wait;
using TimePoint = std::chrono::steady_clock::time_point;

/// Fake-clock helper: an instant `seconds` past an arbitrary (positive)
/// epoch, so window-horizon arithmetic never goes negative.
TimePoint At(double seconds) {
  return TimePoint{} + std::chrono::duration_cast<TimePoint::duration>(
                           std::chrono::duration<double>(5000.0 + seconds));
}

BreakerOptions TightBreaker() {
  BreakerOptions options;
  options.window_seconds = 10.0;
  options.min_requests = 4;
  options.failure_rate_threshold = 0.5;
  options.open_seconds = 2.0;
  options.probe_requests = 3;
  return options;
}

// ---------------------------------------------------------------------------
// CircuitBreaker unit tests (pure fake clock).

TEST(CircuitBreakerTest, TripsAtThresholdThenCoolsToHalfOpen) {
  CircuitBreaker breaker(TightBreaker());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  // Three failures against one success: total 4 (= min_requests), rate 0.75.
  breaker.RecordSuccess(At(0.0));
  breaker.RecordFailure(At(0.0));
  breaker.RecordFailure(At(0.0));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed) << "below min_requests";
  breaker.RecordFailure(At(0.0));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  // Open rejects until the cooldown elapses...
  EXPECT_FALSE(breaker.AllowRequest(At(1.0)));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  // ...then the first allowed request IS the transition to half-open.
  EXPECT_TRUE(breaker.AllowRequest(At(2.5)));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
}

TEST(CircuitBreakerTest, ProbeSuccessesCloseAndProbeFailureReopens) {
  CircuitBreaker breaker(TightBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(At(0.0));
  ASSERT_TRUE(breaker.AllowRequest(At(3.0)));  // -> half-open
  breaker.RecordSuccess(At(3.0));
  breaker.RecordSuccess(At(3.0));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen) << "2 of 3 probes";
  breaker.RecordSuccess(At(3.0));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  // Re-trip, probe again, and fail one probe: reopen immediately.
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(At(4.0));
  ASSERT_TRUE(breaker.AllowRequest(At(7.0)));
  breaker.RecordSuccess(At(7.0));
  breaker.RecordFailure(At(7.0));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest(At(8.0)));
}

TEST(CircuitBreakerTest, SparseFailuresOnBusyShardNeverTrip) {
  CircuitBreaker breaker(TightBreaker());
  // 49% failures at high volume stays closed (threshold is 50%): the
  // successes land first, so the rolling rate peaks at 49/100.
  for (int i = 0; i < 51; ++i) breaker.RecordSuccess(At(0.0));
  for (int i = 0; i < 49; ++i) breaker.RecordFailure(At(0.0));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_NEAR(breaker.FailureRate(At(0.0)), 0.49, 1e-12);
}

TEST(CircuitBreakerTest, RollingWindowForgetsOldFailures) {
  CircuitBreaker breaker(TightBreaker());
  breaker.RecordFailure(At(0.0));
  breaker.RecordFailure(At(0.0));
  breaker.RecordFailure(At(0.0));
  // 11 s later the window (10 s) has dropped the burst: one more failure is
  // 1 of 1 — below min_requests, so the breaker holds closed.
  breaker.RecordFailure(At(11.0));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_NEAR(breaker.FailureRate(At(11.0)), 1.0, 1e-12);
}

TEST(CircuitBreakerTest, TransitionHookSeesEveryFlipInOrder) {
  std::vector<std::pair<BreakerState, BreakerState>> flips;
  CircuitBreaker breaker(TightBreaker(),
                         [&flips](BreakerState from, BreakerState to) {
                           flips.emplace_back(from, to);
                         });
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(At(0.0));
  ASSERT_TRUE(breaker.AllowRequest(At(3.0)));
  for (int i = 0; i < 3; ++i) breaker.RecordSuccess(At(3.0));
  ASSERT_EQ(flips.size(), 3u);
  EXPECT_EQ(flips[0], std::make_pair(BreakerState::kClosed,
                                     BreakerState::kOpen));
  EXPECT_EQ(flips[1], std::make_pair(BreakerState::kOpen,
                                     BreakerState::kHalfOpen));
  EXPECT_EQ(flips[2], std::make_pair(BreakerState::kHalfOpen,
                                     BreakerState::kClosed));
}

TEST(CircuitBreakerTest, BeginProbationForcesHalfOpenFromAnyState) {
  CircuitBreaker breaker(TightBreaker());
  breaker.BeginProbation(At(0.0), /*probe_requests=*/2);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest(At(0.0)));  // probation traffic admits
  breaker.RecordSuccess(At(0.0));
  breaker.RecordSuccess(At(0.0));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

// ---------------------------------------------------------------------------
// RetryBudget unit tests (no clock at all: traffic-fed).

TEST(RetryBudgetTest, SpendsDownThenRefillsFromTrafficCappedAtCap) {
  RetryBudgetOptions options;
  options.ratio = 0.25;  // power of two: the refill sum is float-exact
  options.cap = 2.0;
  RetryBudget budget(options);
  EXPECT_DOUBLE_EQ(budget.tokens(), 2.0);  // starts full
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire()) << "dry bucket must refuse";
  // 3 requests refill 0.75 tokens — still below the 1.0 spend quantum.
  for (int i = 0; i < 3; ++i) budget.OnRequest();
  EXPECT_FALSE(budget.TryAcquire());
  budget.OnRequest();
  EXPECT_TRUE(budget.TryAcquire());
  // A flood of traffic never over-fills past the cap.
  for (int i = 0; i < 1000; ++i) budget.OnRequest();
  EXPECT_DOUBLE_EQ(budget.tokens(), 2.0);
}

// ---------------------------------------------------------------------------
// Retry backoff: deterministic from the seed, bounded by [0.5, 1.0] x the
// capped exponential.

TEST(ResilienceControlTest, RetryBackoffIsSeedDeterministicAndBounded) {
  ResilienceOptions options;
  options.enabled = true;
  options.retry_base_backoff_ms = 1.0;
  options.retry_max_backoff_ms = 50.0;
  ResilienceControl a(options, /*seed=*/42);
  ResilienceControl b(options, /*seed=*/42);
  ResilienceControl c(options, /*seed=*/43);
  bool any_differs = false;
  for (int attempt = 0; attempt < 12; ++attempt) {
    const double ms_a = a.RetryBackoffMs(attempt);
    const double ms_b = b.RetryBackoffMs(attempt);
    EXPECT_DOUBLE_EQ(ms_a, ms_b) << "same seed, attempt " << attempt;
    const double base = std::min(50.0, 1.0 * std::pow(2.0, attempt));
    EXPECT_GE(ms_a, 0.5 * base) << attempt;
    EXPECT_LE(ms_a, 1.0 * base) << attempt;
    if (ms_a != c.RetryBackoffMs(attempt)) any_differs = true;
  }
  EXPECT_TRUE(any_differs) << "distinct seeds must give distinct jitter";
}

// ---------------------------------------------------------------------------
// StaleCache unit tests.

TEST(StaleCacheTest, LookupAgeStampsAndMaxAgeExpires) {
  StaleCacheOptions options;
  options.max_age_ms = 100.0;
  StaleCache cache(options);
  EXPECT_FALSE(cache.Lookup("s", At(0.0)).has_value()) << "nothing stored";
  cache.StorePrediction("s", 1.5, 4.0, At(0.0));
  const auto fresh = cache.Lookup("s", At(0.05));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_DOUBLE_EQ(fresh->log_prediction, 1.5);
  EXPECT_DOUBLE_EQ(fresh->count_prediction, 4.0);
  EXPECT_NEAR(fresh->age_ms, 50.0, 1e-6);
  // Past max_age_ms the answer is too stale even for degraded mode.
  EXPECT_FALSE(cache.Lookup("s", At(0.2)).has_value());
}

TEST(StaleCacheTest, StoreReplacesTheAnswerAndCloseDropsIt) {
  StaleCache cache{StaleCacheOptions{}};
  cache.StorePrediction("s", 2.5, 8.0, At(0.0));
  cache.StorePrediction("s", 3.5, 9.0, At(1.0));
  const auto answer = cache.Lookup("s", At(1.5));
  ASSERT_TRUE(answer.has_value());
  EXPECT_DOUBLE_EQ(answer->log_prediction, 3.5);
  EXPECT_NEAR(answer->age_ms, 500.0, 1e-6) << "age restarts at each store";
  EXPECT_EQ(cache.size(), 1u);
  cache.OnClose("s");
  EXPECT_FALSE(cache.Lookup("s", At(1.5)).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(StaleCacheTest, LruEvictsColdSessionsAtCapacity) {
  StaleCacheOptions options;
  options.capacity = 2;
  StaleCache cache(options);
  cache.StorePrediction("a", 1.0, 1.0, At(0.0));
  cache.StorePrediction("b", 2.0, 2.0, At(0.0));
  ASSERT_TRUE(cache.Lookup("a", At(0.0)).has_value());  // "b" is now LRU
  cache.StorePrediction("c", 3.0, 3.0, At(0.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup("a", At(0.0)).has_value());
  EXPECT_FALSE(cache.Lookup("b", At(0.0)).has_value())
      << "cold session must be evicted";
  EXPECT_TRUE(cache.Lookup("c", At(0.0)).has_value());
}

// ---------------------------------------------------------------------------
// Metrics export.

TEST(ResilienceControlTest, ExportsBreakerStatesAndCountersToRegistry) {
  ResilienceOptions options;
  options.enabled = true;
  options.breaker = TightBreaker();
  ResilienceControl control(options, /*seed=*/7);
  for (int i = 0; i < 4; ++i)
    control.OnShardResult(1, /*failed=*/true, At(0.0));
  control.OnRequestObserved();
  ASSERT_TRUE(control.TryAcquireRetry());
  control.NoteStaleServe();
  obs::MetricsRegistry registry;
  control.ExportToRegistry(registry);
  const std::string text = registry.TextSnapshot();
  EXPECT_NE(text.find("cluster_breaker_state{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(text.find("cluster_retries_attempted_total"), std::string::npos);
  EXPECT_NE(text.find("cluster_stale_serves_total"), std::string::npos);
  EXPECT_NE(text.find("cluster_breaker_opens_total"), std::string::npos);
  EXPECT_NE(text.find("cluster_retry_budget_tokens"), std::string::npos);
  EXPECT_EQ(registry.GetGauge("cluster_breaker_state{shard=\"1\"}").value(),
            static_cast<double>(static_cast<int>(BreakerState::kOpen)));
  EXPECT_EQ(control.breaker_opens(), 1u);
}

// ---------------------------------------------------------------------------
// Router-integrated tests.

class ResilienceRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Get().Clear();
    checkpoint_ = ::testing::TempDir() + "resilience_ckpt.bin";
    SaveCheckpoint();
  }

  void TearDown() override {
    fault::FaultRegistry::Get().Clear();
    std::remove(checkpoint_.c_str());
  }

  void SaveCheckpoint() {
    CascnModel model(testing::TinyCascnConfig());
    model.set_output_offset(2.0);
    ASSERT_TRUE(serve::SaveCascnCheckpoint(checkpoint_, model).ok());
  }

  ShardRouterOptions Options(int shards, bool resilient = true) {
    ShardRouterOptions options;
    options.num_shards = shards;
    options.shard.num_workers = 2;
    options.shard.sessions.observation_window = 60.0;
    options.handoff_dir = ::testing::TempDir();
    options.resilience.enabled = resilient;
    return options;
  }

  std::unique_ptr<ShardRouter> MakeRouter(const ShardRouterOptions& options) {
    auto router = ShardRouter::CreateFromCheckpoint(options, checkpoint_);
    CASCN_CHECK(router.ok()) << router.status();
    return std::move(router).value();
  }

  /// Builds session `i` of the standard drill population (same formula as
  /// shard_router_test's BuildSessions, factored per-session so a lost
  /// session can be re-created with an identical history).
  template <typename CreateFn, typename AppendFn>
  static void BuildSession(int i, CreateFn create, AppendFn append) {
    const std::string id = "sess-" + std::to_string(i);
    ASSERT_TRUE(create(id, i % 7).status.ok()) << id;
    for (int e = 0; e < 2 + i % 3; ++e) {
      ASSERT_TRUE(
          append(id, 10 + e + i, e, 1.0 + e + 0.25 * (i % 4)).status.ok())
          << id << " event " << e;
    }
  }

  std::string checkpoint_;
};

TEST_F(ResilienceRouterTest, DisabledControlPlaneIsNullAndCountsNothing) {
  auto router = MakeRouter(Options(2, /*resilient=*/false));
  EXPECT_EQ(router->resilience(), nullptr);
  ASSERT_TRUE(Wait(router->Submit("", Request::Create("s", 1))).status.ok());
  EXPECT_TRUE(Wait(router->Submit("", Request::Predict("s"))).status.ok());
}

TEST_F(ResilienceRouterTest, RetryAbsorbsOneInjectedUnavailable) {
  auto router = MakeRouter(Options(2));
  ASSERT_TRUE(Wait(router->Submit("", Request::Create("r", 1))).status.ok());
  ASSERT_TRUE(
      Wait(router->Submit("", Request::Append("r", 2, 0, 1.0))).status.ok());
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(std::string(kFaultPredictUnavailable) + "=nth:1")
                  .ok());
  const ServeResponse r = Wait(router->Submit("", Request::Predict("r")));
  EXPECT_TRUE(r.status.ok()) << r.status;
  EXPECT_FALSE(r.stale);
  EXPECT_TRUE(std::isfinite(r.log_prediction));
  EXPECT_EQ(router->resilience()->retries_attempted(), 1u);
  // The fault fired exactly once, so the next predict needs no retry.
  EXPECT_TRUE(Wait(router->Submit("", Request::Predict("r"))).status.ok());
  EXPECT_EQ(router->resilience()->retries_attempted(), 1u);
}

TEST_F(ResilienceRouterTest, RetryIsSingleAndRefusedWhenTheBudgetIsDry) {
  ShardRouterOptions options = Options(2);
  options.resilience.retry_budget.cap = 1.0;  // one retry, then dry
  options.resilience.retry_budget.ratio = 0.01;
  auto router = MakeRouter(options);
  ASSERT_TRUE(Wait(router->Submit("", Request::Create("r", 1))).status.ok());
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(std::string(kFaultPredictUnavailable) + "=always")
                  .ok());
  // Every response is turned Unavailable: the first predict burns the one
  // token (a SINGLE re-dispatch, then gives up)...
  EXPECT_EQ(Wait(router->Submit("", Request::Predict("r"))).status.code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(router->resilience()->retries_attempted(), 1u);
  // ...and the second finds the bucket dry: denied, not retried.
  EXPECT_EQ(Wait(router->Submit("", Request::Predict("r"))).status.code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(router->resilience()->retries_attempted(), 1u);
  EXPECT_GE(router->resilience()->retries_denied(), 1u);
}

// Satellite regression: a Submit that loses the race with CrashShard must
// resolve Unavailable (retryable — the shard will be restarted), NOT the
// NotFound a surviving shard would truthfully-but-misleadingly return.
TEST_F(ResilienceRouterTest, PredictRacingShardCrashResolvesUnavailable) {
  auto router = MakeRouter(Options(3, /*resilient=*/false));
  // Ghost sessions that were never created, bucketed by ring owner while
  // all shards are still up (ShardOf is a pure query; no fault evaluation).
  std::string ghost_on_victim, ghost_on_survivor;
  for (int i = 0; i < 64; ++i) {
    const std::string id = "ghost-" + std::to_string(i);
    if (router->ShardOf(id) == 1 && ghost_on_victim.empty())
      ghost_on_victim = id;
    if (router->ShardOf(id) == 0 && ghost_on_survivor.empty())
      ghost_on_survivor = id;
  }
  ASSERT_FALSE(ghost_on_victim.empty());
  ASSERT_FALSE(ghost_on_survivor.empty());

  // The crash fires from inside the routing of this very predict — the
  // tightest version of the race.
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(std::string(kFaultShardCrash) + "=nth:1@1")
                  .ok());
  const ServeResponse raced =
      Wait(router->Submit("", Request::Predict(ghost_on_victim)));
  EXPECT_EQ(raced.status.code(), StatusCode::kUnavailable)
      << "session on the crashed shard must look retryable, got: "
      << raced.status;
  // A ghost owned by a SURVIVOR still gets the truthful NotFound.
  EXPECT_EQ(Wait(router->Submit("", Request::Predict(ghost_on_survivor)))
                .status.code(),
            StatusCode::kNotFound);
  // After the restart the loss is healed: the id is NotFound (re-create me)
  // rather than permanently Unavailable.
  ASSERT_TRUE(router->RestartShard(1).ok());
  EXPECT_EQ(Wait(router->Submit("", Request::Predict(ghost_on_victim)))
                .status.code(),
            StatusCode::kNotFound);
}

TEST_F(ResilienceRouterTest, StaleReadServesLastGoodWhilePinnedShardIsDead) {
  ShardRouterOptions options = Options(2);
  options.allow_stale = true;
  auto router = MakeRouter(options);
  // Sessions on both shards, so one side dies and the other stays live.
  std::map<int, std::vector<std::string>> by_shard;
  for (int i = 0; i < 8; ++i) {
    const std::string id = "s" + std::to_string(i);
    ASSERT_TRUE(Wait(router->Submit("", Request::Create(id, i))).status.ok());
    ASSERT_TRUE(Wait(router->Submit("", Request::Append(id, 10 + i, 0, 1.0)))
                    .status.ok());
    by_shard[router->ShardOf(id)].push_back(id);
  }
  ASSERT_EQ(by_shard.size(), 2u);
  const int victim = by_shard.begin()->first;
  const std::string on_victim = by_shard[victim].front();
  const std::string on_survivor = by_shard[victim == 0 ? 1 : 0].front();

  const ServeResponse live =
      Wait(router->Submit("", Request::Predict(on_victim)));
  ASSERT_TRUE(live.status.ok());
  ASSERT_FALSE(live.stale);

  // A victim session that never had a successful predict has no last-good
  // answer to fall back on.
  std::string never_predicted;
  for (int j = 0; j < 64 && never_predicted.empty(); ++j) {
    const std::string id = "never-" + std::to_string(j);
    ASSERT_TRUE(Wait(router->Submit("", Request::Create(id, 1))).status.ok());
    if (router->ShardOf(id) == victim) never_predicted = id;
  }
  ASSERT_FALSE(never_predicted.empty());

  router->CrashShard(victim);

  // Degraded mode: the exact last-good answer, marked stale, status OK.
  const ServeResponse degraded =
      Wait(router->Submit("", Request::Predict(on_victim)));
  EXPECT_TRUE(degraded.status.ok()) << degraded.status;
  EXPECT_TRUE(degraded.stale);
  EXPECT_GE(degraded.stale_age_ms, 0.0);
  EXPECT_EQ(degraded.log_prediction, live.log_prediction);
  EXPECT_EQ(degraded.count_prediction, live.count_prediction);
  EXPECT_GE(router->resilience()->stale_serves(), 1u);

  // No cached answer -> the honest retryable error, not a fabricated one.
  EXPECT_EQ(Wait(router->Submit("", Request::Predict(never_predicted)))
                .status.code(),
            StatusCode::kUnavailable);
  // The surviving shard serves live, unmarked answers throughout.
  const ServeResponse healthy =
      Wait(router->Submit("", Request::Predict(on_survivor)));
  EXPECT_TRUE(healthy.status.ok());
  EXPECT_FALSE(healthy.stale);
}

// Satellite: the admission/retry interaction — doomed requests (pinned to a
// dead shard) burn neither tenant quota nor more than the single budgeted
// re-dispatch each, and stale serves are free of quota too.
TEST_F(ResilienceRouterTest, DoomedRetriesAndStaleServesDoNotBurnQuota) {
  ShardRouterOptions options = Options(2);
  options.allow_stale = true;
  options.admission.tokens_per_second = 0.001;  // effectively no refill
  options.admission.burst = 3.0;
  auto router = MakeRouter(options);
  // Tokens 1 and 2.
  ASSERT_TRUE(Wait(router->Submit("t", Request::Create("a", 1))).status.ok());
  const ServeResponse live = Wait(router->Submit("t", Request::Predict("a")));
  ASSERT_TRUE(live.status.ok());
  router->CrashShard(router->ShardOf("a"));

  const uint64_t retries_before = router->resilience()->retries_attempted();
  for (int i = 0; i < 5; ++i) {
    const ServeResponse r = Wait(router->Submit("t", Request::Predict("a")));
    EXPECT_TRUE(r.status.ok()) << r.status;
    EXPECT_TRUE(r.stale);
    EXPECT_EQ(r.log_prediction, live.log_prediction);
  }
  // Each doomed predict re-dispatched exactly once under the budget...
  EXPECT_EQ(router->resilience()->retries_attempted() - retries_before, 5u);
  // ...and none of the 5 (nor their retries) consumed tenant quota: the
  // third token still admits real work, and it is the LAST one.
  EXPECT_TRUE(Wait(router->Submit("t", Request::Create("b", 2))).status.ok());
  EXPECT_EQ(Wait(router->Submit("t", Request::Create("c", 3))).status.code(),
            StatusCode::kResourceExhausted);
}

// A slow pinned shard is waited out, never worked around: the predict
// returns the pinned shard's own answer and the other shard sees no traffic.
TEST_F(ResilienceRouterTest, SlowPinnedShardAnswersAloneAndBitIdentically) {
  auto router = MakeRouter(Options(2));
  ASSERT_TRUE(Wait(router->Submit("", Request::Create("h", 3))).status.ok());
  ASSERT_TRUE(
      Wait(router->Submit("", Request::Append("h", 4, 0, 1.0))).status.ok());
  ASSERT_TRUE(
      Wait(router->Submit("", Request::Append("h", 5, 1, 2.0))).status.ok());
  const ServeResponse healthy = Wait(router->Submit("", Request::Predict("h")));
  ASSERT_TRUE(healthy.status.ok());

  const int home = router->ShardOf("h");
  const int other = home == 0 ? 1 : 0;
  const auto other_requests = [&] {
    return router->shard(other)->metrics().TakeSnapshot().counter(
        serve::Counter::kRequestsTotal);
  };
  const uint64_t other_before = other_requests();
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(SlowShardFaultPoint(home) + "=always@20")
                  .ok());
  const ServeResponse slow = Wait(router->Submit("", Request::Predict("h")));
  fault::FaultRegistry::Get().Clear();
  EXPECT_TRUE(slow.status.ok()) << slow.status;
  EXPECT_FALSE(slow.stale);
  EXPECT_EQ(slow.log_prediction, healthy.log_prediction);
  EXPECT_EQ(slow.count_prediction, healthy.count_prediction);
  EXPECT_EQ(other_requests(), other_before)
      << "a predict must not touch any shard but its pinned one";
  EXPECT_EQ(router->ShardOf("h"), home);
}

// ---------------------------------------------------------------------------
// ShardSupervisor: exact, fake-clock backoff schedules.

TEST_F(ResilienceRouterTest, SupervisorRestartsOnTheExactBackoffSchedule) {
  std::atomic<int64_t> fake_ms{5'000'000};
  const auto clock = [&fake_ms] {
    return TimePoint{} + std::chrono::milliseconds(fake_ms.load());
  };
  ShardRouterOptions options = Options(3);
  options.clock = clock;
  auto router = MakeRouter(options);
  SupervisorOptions sup;
  sup.restart_backoff_ms = 50.0;
  sup.max_backoff_ms = 2000.0;
  sup.clock = clock;
  ShardSupervisor supervisor(*router, sup);

  // Idle passes do nothing.
  EXPECT_EQ(supervisor.PollOnce(), 0);
  EXPECT_TRUE(supervisor.Plans().empty());

  router->CrashShard(2);
  const TimePoint crash_seen = clock();
  EXPECT_EQ(supervisor.PollOnce(), 0) << "first pass only schedules";
  auto plans = supervisor.Plans();
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].shard_id, 2);
  EXPECT_EQ(plans[0].failed_attempts, 0);
  EXPECT_EQ(plans[0].next_attempt_at,
            crash_seen + std::chrono::milliseconds(50));

  fake_ms.fetch_add(49);
  EXPECT_EQ(supervisor.PollOnce(), 0) << "1 ms early is too early";
  fake_ms.fetch_add(1);
  EXPECT_EQ(supervisor.PollOnce(), 1) << "due exactly at +50 ms";
  EXPECT_EQ(supervisor.restarts_total(), 1u);
  EXPECT_TRUE(supervisor.Plans().empty());
  EXPECT_EQ(router->num_shards(), 3);
  EXPECT_EQ(router->ClusterHealth(), Health::kHealthy);
  // The revived shard is on probation, and the restart was counted + dumped
  // through the control plane.
  EXPECT_EQ(router->resilience()->supervisor_restarts(), 1u);
  EXPECT_EQ(router->resilience()->ShardState(2), BreakerState::kHalfOpen);
}

TEST_F(ResilienceRouterTest, SupervisorDoublesBackoffOnFailedRestarts) {
  std::atomic<int64_t> fake_ms{5'000'000};
  const auto clock = [&fake_ms] {
    return TimePoint{} + std::chrono::milliseconds(fake_ms.load());
  };
  ShardRouterOptions options = Options(2);
  options.clock = clock;
  auto router = MakeRouter(options);
  SupervisorOptions sup;
  sup.restart_backoff_ms = 50.0;
  sup.max_backoff_ms = 2000.0;
  sup.clock = clock;
  ShardSupervisor supervisor(*router, sup);
  // Pure backoff table: 50 * 2^n capped at 2000.
  EXPECT_DOUBLE_EQ(supervisor.BackoffMs(0), 50.0);
  EXPECT_DOUBLE_EQ(supervisor.BackoffMs(1), 100.0);
  EXPECT_DOUBLE_EQ(supervisor.BackoffMs(3), 400.0);
  EXPECT_DOUBLE_EQ(supervisor.BackoffMs(6), 2000.0) << "capped";
  EXPECT_DOUBLE_EQ(supervisor.BackoffMs(20), 2000.0);

  router->CrashShard(1);
  EXPECT_EQ(supervisor.PollOnce(), 0);  // schedules at +50
  // The checkpoint vanishes: the due restart must fail and the next attempt
  // slides out by the DOUBLED backoff from the failure time.
  std::remove(checkpoint_.c_str());
  fake_ms.fetch_add(50);
  const TimePoint failed_at = clock();
  EXPECT_EQ(supervisor.PollOnce(), 0);
  EXPECT_EQ(supervisor.restart_failures_total(), 1u);
  auto plans = supervisor.Plans();
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].failed_attempts, 1);
  EXPECT_EQ(plans[0].next_attempt_at,
            failed_at + std::chrono::milliseconds(100));

  fake_ms.fetch_add(99);
  EXPECT_EQ(supervisor.PollOnce(), 0) << "not due yet after a failure";
  SaveCheckpoint();  // the outage heals
  fake_ms.fetch_add(1);
  EXPECT_EQ(supervisor.PollOnce(), 1);
  EXPECT_EQ(supervisor.restarts_total(), 1u);
  EXPECT_EQ(router->ClusterHealth(), Health::kHealthy);
}

TEST_F(ResilienceRouterTest, SupervisorForceRestartsWedgedShards) {
  std::atomic<int64_t> fake_ms{5'000'000};
  const auto clock = [&fake_ms] {
    return TimePoint{} + std::chrono::milliseconds(fake_ms.load());
  };
  ShardRouterOptions options = Options(2);
  options.clock = clock;
  auto router = MakeRouter(options);
  SupervisorOptions sup;
  sup.restart_backoff_ms = 50.0;
  sup.wedged_polls = 2;
  sup.clock = clock;
  ShardSupervisor supervisor(*router, sup);

  // A stall that recovers before `wedged_polls` passes is left alone.
  router->shard(0)->NoteWatchdogStall();
  EXPECT_EQ(supervisor.PollOnce(), 0);
  router->shard(0)->NoteWatchdogRecovery();
  EXPECT_EQ(supervisor.PollOnce(), 0);
  EXPECT_EQ(supervisor.wedge_kills_total(), 0u);

  // A stall that HOLDS is a wedge: force-crash on the Nth pass, then the
  // normal restart schedule revives it.
  router->shard(0)->NoteWatchdogStall();
  EXPECT_EQ(supervisor.PollOnce(), 0);
  EXPECT_EQ(supervisor.PollOnce(), 0);  // second consecutive pass: kill
  EXPECT_EQ(supervisor.wedge_kills_total(), 1u);
  EXPECT_EQ(router->shard(0), nullptr);
  fake_ms.fetch_add(50);
  EXPECT_EQ(supervisor.PollOnce(), 1);
  EXPECT_NE(router->shard(0), nullptr);
  EXPECT_EQ(router->ClusterHealth(), Health::kHealthy);
}

// ---------------------------------------------------------------------------
// The acceptance drill: one deterministic closed loop through every policy.
//
//   deadline storm on one shard -> its breaker opens (anomaly dump) ->
//   open-shard traffic is answered stale under the retry budget, new
//   placements avoid the shard -> cooldown -> the pinned traffic itself is
//   the half-open probe and re-closes the breaker -> CrashShard ->
//   supervisor restarts it on the exact backoff schedule (stale serves
//   bridge the gap; nothing errors) -> probation traffic re-closes the
//   breaker -> re-created sessions predict bit-identically to an unsharded
//   reference service.
TEST_F(ResilienceRouterTest, ClosedLoopDrillRecoversBitIdentical) {
  constexpr int kSessions = 18;

  // Unsharded reference truth.
  serve::ServiceOptions ref_opts;
  ref_opts.num_workers = 1;
  ref_opts.sessions.observation_window = 60.0;
  auto reference =
      PredictionService::CreateFromCheckpoint(ref_opts, checkpoint_);
  ASSERT_TRUE(reference.ok()) << reference.status();
  std::map<std::string, double> expected;
  for (int i = 0; i < kSessions; ++i) {
    BuildSession(
        i,
        [&](const std::string& id, int u) {
          return Wait(reference.value()->Submit(Request::Create(id, u)));
        },
        [&](const std::string& id, int u, int p, double t) {
          return Wait(reference.value()->Submit(Request::Append(id, u, p, t)));
        });
    const std::string id = "sess-" + std::to_string(i);
    const ServeResponse r =
        Wait(reference.value()->Submit(Request::Predict(id)));
    ASSERT_TRUE(r.status.ok()) << r.status;
    expected[id] = r.log_prediction;
  }

  // The cluster under drill: injected clock for every policy window, single
  // worker per shard so a deadline storm queues deterministically.
  std::atomic<int64_t> fake_ms{5'000'000};
  const auto clock = [&fake_ms] {
    return TimePoint{} + std::chrono::milliseconds(fake_ms.load());
  };
  ShardRouterOptions options = Options(3);
  options.shard.num_workers = 1;
  options.clock = clock;
  options.allow_stale = true;
  options.resilience.breaker = TightBreaker();  // min 4, 50%, open 2 s, probe 3
  options.flight_dir = ::testing::TempDir() + "drill_flight";
  ASSERT_EQ(std::system(("rm -rf " + options.flight_dir + " && mkdir -p " +
                         options.flight_dir)
                            .c_str()),
            0);
  auto router = MakeRouter(options);
  ResilienceControl* rc = router->resilience();
  ASSERT_NE(rc, nullptr);

  for (int i = 0; i < kSessions; ++i)
    BuildSession(
        i,
        [&](const std::string& id, int u) {
          return Wait(router->Submit("", Request::Create(id, u)));
        },
        [&](const std::string& id, int u, int p, double t) {
          return Wait(router->Submit("", Request::Append(id, u, p, t)));
        });
  // Baseline: sharded == unsharded, bit for bit; also primes the last-good
  // cache for the degraded phases below.
  for (const auto& [id, value] : expected) {
    const ServeResponse r = Wait(router->Submit("", Request::Predict(id)));
    ASSERT_TRUE(r.status.ok()) << id << ": " << r.status;
    ASSERT_EQ(r.log_prediction, value) << id;
  }

  const int victim = router->ShardOf("sess-0");
  std::vector<std::string> on_victim, elsewhere;
  for (const auto& [id, value] : expected)
    (router->ShardOf(id) == victim ? on_victim : elsewhere).push_back(id);
  ASSERT_GE(on_victim.size(), 4u) << "drill needs a loaded victim shard";
  ASSERT_FALSE(elsewhere.empty());

  // --- Phase 1: deadline storm opens the victim's breaker. ---------------
  // Step past the breaker's rolling window first so the baseline successes
  // above have aged out — the storm must be judged on its own failure mix.
  fake_ms.fetch_add(11'000);
  // One slow request occupies the lone worker; everything behind it expires
  // in the queue (DeadlineExceeded), which is exactly the failure mix the
  // breaker watches. The doomed requests themselves are answered from the
  // last-good cache — degraded, never an error.
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(SlowShardFaultPoint(victim) + "=always@40")
                  .ok());
  auto blocker = router->Submit("", Request::Predict(on_victim[0]));
  ASSERT_TRUE(blocker.ok()) << blocker.status();
  std::vector<std::future<ServeResponse>> doomed;
  for (size_t i = 1; i < on_victim.size(); ++i) {
    auto submitted = router->Submit(
        "", Request::Predict(on_victim[i], /*deadline_ms=*/10.0));
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    doomed.push_back(std::move(submitted).value());
  }
  const ServeResponse blocked = blocker.value().get();
  EXPECT_TRUE(blocked.status.ok()) << blocked.status;
  const uint64_t denied_before = rc->retries_denied();
  for (size_t i = 0; i < doomed.size(); ++i) {
    const ServeResponse r = doomed[i].get();
    EXPECT_TRUE(r.status.ok()) << on_victim[i + 1] << ": " << r.status;
    EXPECT_TRUE(r.stale) << on_victim[i + 1];
    EXPECT_EQ(r.log_prediction, expected[on_victim[i + 1]]);
  }
  // An expired deadline leaves no headroom: every doomed retry was denied
  // on the remaining-time floor, not re-raced.
  EXPECT_GE(rc->retries_denied() - denied_before, doomed.size());
  EXPECT_EQ(rc->ShardState(victim), BreakerState::kOpen);
  EXPECT_EQ(rc->breaker_opens(), 1u);
  fault::FaultRegistry::Get().Clear();

  // The flip wrote a black-box dump.
  {
    std::ifstream in(options.flight_dir + "/flight_router.jsonl");
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("breaker_open"), std::string::npos);
  }

  // --- Phase 2: while open — budgeted retry, stale answer, no placement. --
  const uint64_t retries_before = rc->retries_attempted();
  const ServeResponse gated =
      Wait(router->Submit("", Request::Predict(on_victim[1])));
  EXPECT_TRUE(gated.status.ok()) << gated.status;
  EXPECT_TRUE(gated.stale);
  EXPECT_EQ(gated.log_prediction, expected[on_victim[1]]);
  EXPECT_GE(rc->retries_attempted(), retries_before + 1)
      << "an open breaker with time on the clock is worth one budgeted retry";
  for (int i = 0; i < 9; ++i) {
    const std::string id = "fresh-" + std::to_string(i);
    ASSERT_TRUE(Wait(router->Submit("", Request::Create(id, i))).status.ok());
    EXPECT_NE(router->ShardOf(id), victim)
        << "the ring walk must skip an open shard";
  }

  // --- Phase 3: cooldown elapses; pinned traffic is the probe. -----------
  fake_ms.fetch_add(3000);  // > open_seconds
  for (int probe = 0; probe < 3; ++probe) {
    const ServeResponse r =
        Wait(router->Submit("", Request::Predict(on_victim[probe])));
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_FALSE(r.stale) << "half-open admits real traffic";
    EXPECT_EQ(r.log_prediction, expected[on_victim[probe]]);
  }
  EXPECT_EQ(rc->ShardState(victim), BreakerState::kClosed)
      << "3 clean probes must re-close the breaker";

  // --- Phase 4: hard crash; the supervisor heals it on schedule. ---------
  router->CrashShard(victim);
  EXPECT_EQ(router->ClusterHealth(), Health::kDegraded);
  SupervisorOptions sup;
  sup.restart_backoff_ms = 50.0;
  sup.clock = clock;
  ShardSupervisor supervisor(*router, sup);
  EXPECT_EQ(supervisor.PollOnce(), 0);
  auto plans = supervisor.Plans();
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].shard_id, victim);
  EXPECT_EQ(plans[0].next_attempt_at,
            clock() + std::chrono::milliseconds(50));
  // The gap between crash and restart is bridged by stale serves — status
  // OK every time, never an error surfaced to the client.
  const ServeResponse bridged =
      Wait(router->Submit("", Request::Predict(on_victim[1])));
  EXPECT_TRUE(bridged.status.ok()) << bridged.status;
  EXPECT_TRUE(bridged.stale);
  fake_ms.fetch_add(49);
  EXPECT_EQ(supervisor.PollOnce(), 0);
  fake_ms.fetch_add(1);
  EXPECT_EQ(supervisor.PollOnce(), 1);
  EXPECT_EQ(supervisor.restarts_total(), 1u);
  EXPECT_EQ(rc->supervisor_restarts(), 1u);
  EXPECT_EQ(router->ClusterHealth(), Health::kHealthy);
  EXPECT_EQ(rc->ShardState(victim), BreakerState::kHalfOpen)
      << "a supervised restart begins in probation";
  {
    std::ifstream in(options.flight_dir + "/flight_router.jsonl");
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("supervisor_restart"), std::string::npos);
  }

  // --- Phase 5: probation traffic re-closes the breaker. -----------------
  // The crash dropped the victim's pins; its sessions read NotFound (the
  // honest "re-create me", not Unavailable, not a stale fabrication) — and
  // those application-level outcomes COUNT as clean probes.
  int probes = 0;
  for (int i = 0; i < 256 && probes < 3; ++i) {
    const std::string id = "probe-" + std::to_string(i);
    if (router->ShardOf(id) != victim) continue;
    EXPECT_EQ(Wait(router->Submit("", Request::Predict(id))).status.code(),
              StatusCode::kNotFound);
    ++probes;
  }
  ASSERT_EQ(probes, 3);
  EXPECT_EQ(rc->ShardState(victim), BreakerState::kClosed);

  // --- Phase 6: re-create the lost sessions; everything is bit-identical. -
  for (int i = 0; i < kSessions; ++i) {
    const std::string id = "sess-" + std::to_string(i);
    if (std::find(on_victim.begin(), on_victim.end(), id) == on_victim.end())
      continue;
    // The crash already released these sessions' pins and state; the close
    // only drops the stale-cache entry and reports the honest NotFound.
    (void)Wait(router->Submit("", Request::Close(id)));
    BuildSession(
        i,
        [&](const std::string& sid, int u) {
          return Wait(router->Submit("", Request::Create(sid, u)));
        },
        [&](const std::string& sid, int u, int p, double t) {
          return Wait(router->Submit("", Request::Append(sid, u, p, t)));
        });
  }
  for (const auto& [id, value] : expected) {
    const ServeResponse r = Wait(router->Submit("", Request::Predict(id)));
    ASSERT_TRUE(r.status.ok()) << id << ": " << r.status;
    EXPECT_FALSE(r.stale) << id;
    EXPECT_EQ(r.log_prediction, value) << id;
  }
  EXPECT_EQ(router->ClusterHealth(), Health::kHealthy);

  // The whole loop is visible to operators via the registry.
  obs::MetricsRegistry registry;
  router->ExportToRegistry(registry);
  const std::string text = registry.TextSnapshot();
  EXPECT_NE(text.find("cluster_supervisor_restarts_total"),
            std::string::npos);
  EXPECT_NE(text.find("cluster_stale_serves_total"), std::string::npos);
  EXPECT_GE(rc->stale_serves(), 1u + doomed.size());
}

}  // namespace
}  // namespace cascn::cluster

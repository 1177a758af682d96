// ShardRouter: routing, admission, crash shedding, and — the acceptance
// bar — a live rebalance that loses no session and leaves every session's
// next prediction bit-identical to an unsharded reference service.

#include "cluster/shard_router.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../testing/test_data.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/cascn_model.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "serve/checkpoint.h"

namespace cascn::cluster {
namespace {

using serve::Health;
using serve::PredictionService;
using serve::Request;
using serve::ServeResponse;
using serve::Wait;

class ShardRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Get().Clear();
    checkpoint_ = ::testing::TempDir() + "router_ckpt.bin";
    CascnModel model(testing::TinyCascnConfig());
    model.set_output_offset(2.0);
    ASSERT_TRUE(serve::SaveCascnCheckpoint(checkpoint_, model).ok());
  }

  void TearDown() override {
    fault::FaultRegistry::Get().Clear();
    std::remove(checkpoint_.c_str());
  }

  ShardRouterOptions Options(int shards) {
    ShardRouterOptions options;
    options.num_shards = shards;
    options.shard.num_workers = 2;
    options.shard.sessions.observation_window = 60.0;
    return options;
  }

  std::unique_ptr<ShardRouter> MakeRouter(const ShardRouterOptions& options) {
    auto router = ShardRouter::CreateFromCheckpoint(options, checkpoint_);
    CASCN_CHECK(router.ok()) << router.status();
    return std::move(router).value();
  }

  /// Builds K sessions with distinct small cascades through `create` and
  /// `append` callables.
  template <typename CreateFn, typename AppendFn>
  static void BuildSessions(int k, CreateFn create, AppendFn append) {
    for (int i = 0; i < k; ++i) {
      const std::string id = "sess-" + std::to_string(i);
      ASSERT_TRUE(create(id, i % 7).status.ok()) << id;
      for (int e = 0; e < 2 + i % 3; ++e) {
        ASSERT_TRUE(
            append(id, 10 + e + i, e, 1.0 + e + 0.25 * (i % 4)).status.ok())
            << id << " event " << e;
      }
    }
  }

  std::string checkpoint_;
};

TEST_F(ShardRouterTest, RoutesSessionsAcrossShardsAndPredicts) {
  auto router = MakeRouter(Options(3));
  BuildSessions(
      24,
      [&](const std::string& id, int u) {
        return Wait(router->Submit("", Request::Create(id, u)));
      },
      [&](const std::string& id, int u, int p, double t) {
        return Wait(router->Submit("", Request::Append(id, u, p, t)));
      });
  std::map<int, int> per_shard;
  for (int i = 0; i < 24; ++i)
    ++per_shard[router->ShardOf("sess-" + std::to_string(i))];
  EXPECT_EQ(per_shard.size(), 3u) << "sessions all landed on one shard";
  for (int i = 0; i < 24; ++i) {
    const ServeResponse r =
        Wait(router->Submit("", Request::Predict("sess-" + std::to_string(i))));
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_TRUE(std::isfinite(r.log_prediction));
  }
  EXPECT_EQ(router->ClusterHealth(), Health::kHealthy);
}

TEST_F(ShardRouterTest, SessionOperationsStayOnOnePin) {
  auto router = MakeRouter(Options(4));
  ASSERT_TRUE(
      Wait(router->Submit("", Request::Create("pinned", 1))).status.ok());
  const int home = router->ShardOf("pinned");
  for (int e = 0; e < 6; ++e) {
    const Request append = Request::Append("pinned", 2 + e, e, 1.0 + e);
    ASSERT_TRUE(Wait(router->Submit("", append)).status.ok());
    EXPECT_EQ(router->ShardOf("pinned"), home);
  }
  EXPECT_EQ(router->shard(home)->sessions().SessionSize("pinned").value(), 7);
}

// The acceptance test: K sessions across N shards, drain + handoff one
// shard, and every session's next Predict is bit-identical to an unsharded
// reference service loaded from the same checkpoint.
TEST_F(ShardRouterTest, RebalanceLosesNoSessionAndPredictsBitIdentically) {
  constexpr int kSessions = 30;

  // Unsharded reference.
  serve::ServiceOptions ref_opts;
  ref_opts.num_workers = 1;
  ref_opts.sessions.observation_window = 60.0;
  auto reference = PredictionService::CreateFromCheckpoint(ref_opts,
                                                           checkpoint_);
  ASSERT_TRUE(reference.ok()) << reference.status();
  BuildSessions(
      kSessions,
      [&](const std::string& id, int u) {
        return Wait(reference.value()->Submit(Request::Create(id, u)));
      },
      [&](const std::string& id, int u, int p, double t) {
        return Wait(reference.value()->Submit(Request::Append(id, u, p, t)));
      });
  std::map<std::string, double> expected;
  for (int i = 0; i < kSessions; ++i) {
    const std::string id = "sess-" + std::to_string(i);
    const ServeResponse r =
        Wait(reference.value()->Submit(Request::Predict(id)));
    ASSERT_TRUE(r.status.ok()) << r.status;
    expected[id] = r.log_prediction;
  }

  // Sharded cluster with the same sessions.
  auto router = MakeRouter(Options(3));
  BuildSessions(
      kSessions,
      [&](const std::string& id, int u) {
        return Wait(router->Submit("", Request::Create(id, u)));
      },
      [&](const std::string& id, int u, int p, double t) {
        return Wait(router->Submit("", Request::Append(id, u, p, t)));
      });

  // Drain + handoff shard 1.
  ASSERT_TRUE(router->RemoveShard(1).ok());
  EXPECT_EQ(router->num_shards(), 2);
  EXPECT_EQ(router->shard(1), nullptr);

  // Zero loss, bit-identical predictions, and nothing routed to shard 1.
  for (int i = 0; i < kSessions; ++i) {
    const std::string id = "sess-" + std::to_string(i);
    EXPECT_NE(router->ShardOf(id), 1) << id;
    const ServeResponse r = Wait(router->Submit("", Request::Predict(id)));
    ASSERT_TRUE(r.status.ok()) << id << ": " << r.status;
    EXPECT_EQ(r.log_prediction, expected[id]) << id;
  }
  EXPECT_EQ(router->ClusterHealth(), Health::kHealthy);
}

/// A CasCN model whose forward waits until `release` is set. A session
/// predicting through it stays busy in its SessionManager until then, so a
/// rebalance cannot extract it. (The slow-shard fault sleeps before the
/// worker enters the session, so it cannot hold one busy.)
class GatedModel : public CascadeRegressor {
 public:
  GatedModel(std::unique_ptr<CascnModel> inner,
             const std::atomic<bool>& release, std::atomic<bool>& entered)
      : inner_(std::move(inner)), release_(release), entered_(entered) {
    set_output_offset(inner_->output_offset());
  }
  ag::Variable PredictLog(const CascadeSample& sample) override {
    entered_ = true;
    while (!release_) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return inner_->PredictLog(sample);
  }
  std::vector<ag::Variable> TrainableParameters() override { return {}; }
  std::string name() const override { return "gated"; }

 private:
  std::unique_ptr<CascnModel> inner_;
  const std::atomic<bool>& release_;
  std::atomic<bool>& entered_;
};

// The put-back path: a session that stays busy through the extract retries
// aborts the removal. The shard stays, routing is untouched, and every
// session (the extracted ones put back) predicts the bits it gave before.
TEST_F(ShardRouterTest, BusySessionAbortsRemovalAndEverySessionStays) {
  auto router = MakeRouter(Options(2));
  BuildSessions(
      12,
      [&](const std::string& id, int u) {
        return Wait(router->Submit("", Request::Create(id, u)));
      },
      [&](const std::string& id, int u, int p, double t) {
        return Wait(router->Submit("", Request::Append(id, u, p, t)));
      });
  // Hold the session the removal reaches last (it walks SessionIds() in
  // order), so every other one on shard 1 is extracted and must go back.
  const std::vector<std::string> on_shard_1 =
      router->shard(1)->sessions().SessionIds();
  ASSERT_GE(on_shard_1.size(), 2u);
  const std::string held = on_shard_1.back();
  // Every session but `held` predicts through its shard now; `held` has no
  // cached prediction yet, so its first predict below runs a forward.
  std::map<std::string, double> before;
  std::map<std::string, int> home;
  for (int i = 0; i < 12; ++i) {
    const std::string id = "sess-" + std::to_string(i);
    home[id] = router->ShardOf(id);
    if (id == held) continue;
    const ServeResponse r = Wait(router->Submit("", Request::Predict(id)));
    ASSERT_TRUE(r.status.ok()) << id << ": " << r.status;
    before[id] = r.log_prediction;
  }

  // `held`'s bits: its cascade, copied out, forwarded by a model of its own
  // loaded from the shard's checkpoint.
  serve::SessionManager& sessions = router->shard(1)->sessions();
  {
    const Result<std::string> blob = sessions.Serialize(held);
    ASSERT_TRUE(blob.ok()) << blob.status();
    auto own_model = serve::LoadCascnCheckpoint(checkpoint_);
    ASSERT_TRUE(own_model.ok()) << own_model.status();
    serve::SessionManager copy(sessions.options());
    ASSERT_TRUE(copy.Deserialize(held, blob.value()).ok());
    const Result<double> own = copy.PredictLog(held, *own_model.value());
    ASSERT_TRUE(own.ok()) << own.status();
    before[held] = own.value();
  }

  // Hold `held` inside that forward on shard 1 well past the extract
  // retries.
  auto model = serve::LoadCascnCheckpoint(checkpoint_);
  ASSERT_TRUE(model.ok()) << model.status();
  std::atomic<bool> release{false}, entered{false};
  GatedModel gated(std::move(model).value(), release, entered);
  Result<double> held_prediction = Status::Internal("never predicted");
  std::thread holder(
      [&] { held_prediction = sessions.PredictLog(held, gated); });
  while (!entered) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const Status removed = router->RemoveShard(1);
  release = true;
  holder.join();
  ASSERT_TRUE(held_prediction.ok()) << held_prediction.status();
  EXPECT_EQ(held_prediction.value(), before[held]);
  EXPECT_EQ(removed.code(), StatusCode::kUnavailable) << removed;
  EXPECT_NE(router->shard(1), nullptr);
  EXPECT_EQ(router->num_shards(), 2);
  for (const auto& [id, value] : before) {
    EXPECT_EQ(router->ShardOf(id), home[id]) << id;
    const ServeResponse r = Wait(router->Submit("", Request::Predict(id)));
    ASSERT_TRUE(r.status.ok()) << id << ": " << r.status;
    EXPECT_EQ(r.log_prediction, value) << id;
  }
  EXPECT_EQ(router->ClusterHealth(), Health::kHealthy);
}

// A request a worker has taken off the queue but not finished still holds
// its session: here it sleeps in the slow-shard delay, before it reaches
// the session table. The removal waits for it to finish, so it answers from
// the shard it was routed to, and only then does the session move.
TEST_F(ShardRouterTest, RemovalWaitsForARequestInFlightOnTheShard) {
  auto router = MakeRouter(Options(2));
  std::string id;
  for (int i = 0; id.empty(); ++i) {
    ASSERT_LT(i, 64) << "no session placed on shard 1";
    const std::string candidate = "sess-" + std::to_string(i);
    ASSERT_TRUE(
        Wait(router->Submit("", Request::Create(candidate, i))).status.ok());
    if (router->ShardOf(candidate) == 1) id = candidate;
  }
  ASSERT_TRUE(
      Wait(router->Submit("", Request::Append(id, 7, 0, 1.0))).status.ok());
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(SlowShardFaultPoint(1) + "=always@1500")
                  .ok());
  auto submitted = router->Submit("", Request::Predict(id));
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const Status removed = router->RemoveShard(1);
  const ServeResponse in_flight = submitted.value().get();
  EXPECT_TRUE(removed.ok()) << removed;
  EXPECT_TRUE(in_flight.status.ok()) << in_flight.status;
  EXPECT_EQ(router->ShardOf(id), 0);
  fault::FaultRegistry::Get().Clear();
  const ServeResponse after = Wait(router->Submit("", Request::Predict(id)));
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_EQ(after.log_prediction, in_flight.log_prediction);
}

TEST_F(ShardRouterTest, SpilledSessionsSurviveTheRebalance) {
  // Tiny per-shard capacity: most sessions get LRU-evicted into the spill
  // table, and the rebalance must move those histories too.
  ShardRouterOptions options = Options(2);
  options.shard.sessions.capacity = 2;
  options.shard.sessions.spill_capacity = 64;
  auto router = MakeRouter(options);
  BuildSessions(
      10,
      [&](const std::string& id, int u) {
        return Wait(router->Submit("", Request::Create(id, u)));
      },
      [&](const std::string& id, int u, int p, double t) {
        return Wait(router->Submit("", Request::Append(id, u, p, t)));
      });
  ASSERT_TRUE(router->RemoveShard(1).ok());
  for (int i = 0; i < 10; ++i) {
    const std::string id = "sess-" + std::to_string(i);
    const ServeResponse r = Wait(router->Submit("", Request::Predict(id)));
    ASSERT_TRUE(r.status.ok()) << id << ": " << r.status;
  }
}

TEST_F(ShardRouterTest, CrashShedsToSurvivorsAndRestartRejoins) {
  auto router = MakeRouter(Options(3));
  BuildSessions(
      18,
      [&](const std::string& id, int u) {
        return Wait(router->Submit("", Request::Create(id, u)));
      },
      [&](const std::string& id, int u, int p, double t) {
        return Wait(router->Submit("", Request::Append(id, u, p, t)));
      });
  std::vector<std::string> on_crashed, elsewhere;
  for (int i = 0; i < 18; ++i) {
    const std::string id = "sess-" + std::to_string(i);
    (router->ShardOf(id) == 0 ? on_crashed : elsewhere).push_back(id);
  }
  ASSERT_FALSE(on_crashed.empty());
  ASSERT_FALSE(elsewhere.empty());

  router->CrashShard(0);
  EXPECT_EQ(router->ClusterHealth(), Health::kDegraded);
  EXPECT_EQ(router->num_shards(), 2);

  // Sessions pinned to the dead shard fail distinctly; others keep serving.
  for (const auto& id : on_crashed)
    EXPECT_EQ(Wait(router->Submit("", Request::Predict(id))).status.code(),
              StatusCode::kUnavailable)
        << id;
  for (const auto& id : elsewhere)
    EXPECT_TRUE(Wait(router->Submit("", Request::Predict(id))).status.ok())
        << id;

  // New sessions shed to the survivors.
  std::map<std::string, double> fresh;
  for (int i = 0; i < 12; ++i) {
    const std::string id = "fresh-" + std::to_string(i);
    ASSERT_TRUE(Wait(router->Submit("", Request::Create(id, i))).status.ok())
        << id;
    ASSERT_TRUE(
        Wait(router->Submit("", Request::Append(id, 20 + i, 0, 1.0 + i % 3)))
            .status.ok())
        << id;
    EXPECT_NE(router->ShardOf(id), 0) << id;
    const ServeResponse r = Wait(router->Submit("", Request::Predict(id)));
    ASSERT_TRUE(r.status.ok()) << id << ": " << r.status;
    fresh[id] = r.log_prediction;
  }

  // Rejoin: the shard comes back, health recovers, and the sessions the
  // ring assigns to shard 0 are pulled over and predict as before.
  ASSERT_TRUE(router->RestartShard(0).ok());
  EXPECT_EQ(router->ClusterHealth(), Health::kHealthy);
  EXPECT_EQ(router->num_shards(), 3);
  for (const auto& id : elsewhere)
    EXPECT_TRUE(Wait(router->Submit("", Request::Predict(id))).status.ok())
        << id;
  int pulled = 0;
  for (const auto& [id, value] : fresh) {
    pulled += router->ShardOf(id) == 0;
    const ServeResponse r = Wait(router->Submit("", Request::Predict(id)));
    ASSERT_TRUE(r.status.ok()) << id << ": " << r.status;
    EXPECT_EQ(r.log_prediction, value) << id;
  }
  EXPECT_GE(pulled, 1) << "the join pulled no session to shard 0";
  // Crashed-shard sessions were lost (as a crash loses memory) but can be
  // re-created now that the pin is released.
  for (const auto& id : on_crashed) {
    EXPECT_EQ(Wait(router->Submit("", Request::Predict(id))).status.code(),
              StatusCode::kNotFound)
        << id;
    EXPECT_TRUE(Wait(router->Submit("", Request::Create(id, 1))).status.ok())
        << id;
  }
}

TEST_F(ShardRouterTest, ShardCrashFaultKillsTheNamedShardMidLoad) {
  auto router = MakeRouter(Options(3));
  // Fault: the 10th routed request crashes shard 1.
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(std::string(kFaultShardCrash) + "=nth:10@1")
                  .ok());
  int created = 0;
  for (int i = 0; i < 40; ++i) {
    const ServeResponse r =
        Wait(router->Submit("", Request::Create("chaos-" + std::to_string(i),
                                                i % 5)));
    if (r.status.ok()) ++created;
  }
  EXPECT_EQ(router->num_shards(), 2);
  EXPECT_EQ(router->shard(1), nullptr);
  EXPECT_EQ(router->ClusterHealth(), Health::kDegraded);
  // Offered load after the crash kept landing on the survivors.
  EXPECT_GE(created, 30);
  const auto snapshot = router->TakeSnapshot();
  EXPECT_EQ(snapshot.crashed_shards, 1u);
}

TEST_F(ShardRouterTest, TenantQuotasRejectWithResourceExhausted) {
  ShardRouterOptions options = Options(2);
  options.admission.tokens_per_second = 0.001;  // effectively no refill
  options.admission.burst = 3.0;
  auto router = MakeRouter(options);
  int ok = 0, exhausted = 0;
  for (int i = 0; i < 10; ++i) {
    const ServeResponse r =
        Wait(router->Submit("tenant-x",
                            Request::Create("q-" + std::to_string(i), i)));
    if (r.status.ok()) ++ok;
    if (r.status.code() == StatusCode::kResourceExhausted) ++exhausted;
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(exhausted, 7);
  // The unnamed tenant is exempt.
  EXPECT_TRUE(
      Wait(router->Submit("", Request::Create("exempt", 1))).status.ok());
  const auto snapshot = router->TakeSnapshot();
  ASSERT_EQ(snapshot.tenants.size(), 1u);
  EXPECT_EQ(snapshot.tenants[0].tenant, "tenant-x");
  EXPECT_EQ(snapshot.tenants[0].admitted, 3u);
  EXPECT_EQ(snapshot.tenants[0].rejected, 7u);
  EXPECT_EQ(snapshot.total_shed, 7u);
}

TEST_F(ShardRouterTest, SlowShardFaultOnlySlowsTheNamedShard) {
  auto router = MakeRouter(Options(2));
  ASSERT_TRUE(Wait(router->Submit("", Request::Create("a", 1))).status.ok());
  ASSERT_TRUE(
      Wait(router->Submit("", Request::Append("a", 2, 0, 1.0))).status.ok());
  const int home = router->ShardOf("a");
  const int other = home == 0 ? 1 : 0;
  // Slow the *other* shard; session "a" must be unaffected by a deadline
  // that the slowed shard could never meet.
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(SlowShardFaultPoint(other) + "=always@200")
                  .ok());
  auto submitted =
      router->Submit("", Request::Predict("a", /*deadline_ms=*/100.0));
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  const ServeResponse r = submitted.value().get();
  EXPECT_TRUE(r.status.ok()) << r.status;
}

TEST_F(ShardRouterTest, ExportsLabeledPerShardAndClusterMetrics) {
  auto router = MakeRouter(Options(2));
  ASSERT_TRUE(
      Wait(router->Submit("acme", Request::Create("m1", 1))).status.ok());
  ASSERT_TRUE(Wait(router->Submit("acme", Request::Predict("m1"))).status.ok());
  obs::MetricsRegistry registry;
  router->ExportToRegistry(registry);
  const std::string text = registry.TextSnapshot();
  EXPECT_NE(text.find("serve_requests_total{shard=\"0\"}"), std::string::npos);
  EXPECT_NE(text.find("serve_requests_total{shard=\"1\"}"), std::string::npos);
  EXPECT_NE(text.find("cluster_health"), std::string::npos);
  EXPECT_NE(text.find("cluster_latency_p99_us"), std::string::npos);
  EXPECT_NE(text.find("cluster_tenant_admitted{tenant=\"acme\"}"),
            std::string::npos);
  // The two shard labels are distinct gauges in ONE registry, and their
  // request counts sum to the cluster's total.
  const double total =
      registry.GetGauge("serve_requests_total{shard=\"0\"}").value() +
      registry.GetGauge("serve_requests_total{shard=\"1\"}").value();
  EXPECT_EQ(total, 2.0);
}

TEST_F(ShardRouterTest, RemovingTheLastShardIsRefused) {
  auto router = MakeRouter(Options(1));
  ASSERT_TRUE(Wait(router->Submit("", Request::Create("only", 1))).status.ok());
  EXPECT_EQ(router->RemoveShard(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(Wait(router->Submit("", Request::Predict("only"))).status.ok());
}

uint64_t TotalPinned(const ShardRouter::Snapshot& snap) {
  uint64_t total = 0;
  for (const auto& shard : snap.shards) total += shard.pinned_sessions;
  return total;
}

TEST_F(ShardRouterTest, ResolvingAnAsyncCloseReleasesThePin) {
  auto router = MakeRouter(Options(2));
  ASSERT_TRUE(Wait(router->Submit("", Request::Create("s", 1))).status.ok());
  EXPECT_EQ(TotalPinned(router->TakeSnapshot()), 1u);
  auto submitted = router->Submit("", Request::Close("s"));
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  ASSERT_TRUE(submitted.value().get().status.ok());
  // The async close did its own pin bookkeeping — no blocking CallClose
  // needed, and the load metric no longer counts the dead session.
  EXPECT_EQ(TotalPinned(router->TakeSnapshot()), 0u);
  EXPECT_EQ(Wait(router->Submit("", Request::Predict("s"))).status.code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(Wait(router->Submit("", Request::Create("s", 2))).status.ok());
}

// A close whose future is dropped unresolved still releases the pin: the
// close's outcome record does the bookkeeping on the shard's worker.
TEST_F(ShardRouterTest, DroppedCloseFutureStillReleasesThePin) {
  auto router = MakeRouter(Options(2));
  ASSERT_TRUE(Wait(router->Submit("", Request::Create("s", 1))).status.ok());
  EXPECT_EQ(TotalPinned(router->TakeSnapshot()), 1u);
  ASSERT_TRUE(router->Submit("", Request::Close("s")).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (TotalPinned(router->TakeSnapshot()) != 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(TotalPinned(router->TakeSnapshot()), 0u);
  EXPECT_EQ(Wait(router->Submit("", Request::Predict("s"))).status.code(),
            StatusCode::kNotFound);
}

// A re-create rejected by admission must leave the pin alone: the earlier
// close still owns the pin's generation and releases it when resolved.
TEST_F(ShardRouterTest, RejectedRecreateDoesNotLeakThePin) {
  ShardRouterOptions options = Options(2);
  options.admission.tokens_per_second = 0.001;  // effectively no refill
  options.admission.burst = 2.0;
  auto router = MakeRouter(options);
  ASSERT_TRUE(Wait(router->Submit("t", Request::Create("s", 1))).status.ok());
  auto close = router->Submit("t", Request::Close("s"));
  ASSERT_TRUE(close.ok()) << close.status();
  EXPECT_EQ(Wait(router->Submit("t", Request::Create("s", 2))).status.code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(close.value().get().status.ok());
  EXPECT_EQ(TotalPinned(router->TakeSnapshot()), 0u);
}

TEST_F(ShardRouterTest, RemoveShardSweepsStalePinsSoTheIdStaysUsable) {
  auto router = MakeRouter(Options(2));
  ASSERT_TRUE(
      Wait(router->Submit("", Request::Create("stale", 1))).status.ok());
  const int home = router->ShardOf("stale");
  // Close behind the router's back: the session is gone from the shard but
  // the router still carries its pin.
  ASSERT_TRUE(
      Wait(router->shard(home)->Submit(Request::Close("stale"))).status.ok());
  ASSERT_TRUE(router->RemoveShard(home).ok());
  // The sweep at the end of RemoveShard erased the stale pin; without it,
  // every request for this id — including Create — would be Unavailable
  // ("pinned to shard which is down") forever.
  EXPECT_NE(router->ShardOf("stale"), home);
  EXPECT_TRUE(
      Wait(router->Submit("", Request::Create("stale", 2))).status.ok());
  EXPECT_TRUE(
      Wait(router->Submit("", Request::Predict("stale"))).status.ok());
}

TEST_F(ShardRouterTest, SpillLruDropReleasesThePin) {
  // One shard with room for 1 live + 1 spilled session: the third create
  // permanently drops the first session's history, and the router must
  // drop its pin with it (or pins_ grows without bound and the placement
  // load metric counts ghosts).
  ShardRouterOptions options = Options(1);
  options.shard.sessions.capacity = 1;
  options.shard.sessions.spill_capacity = 1;
  auto router = MakeRouter(options);
  ASSERT_TRUE(Wait(router->Submit("", Request::Create("g0", 1))).status.ok());
  ASSERT_TRUE(Wait(router->Submit("", Request::Create("g1", 2))).status.ok());
  // Drops "g0".
  ASSERT_TRUE(Wait(router->Submit("", Request::Create("g2", 3))).status.ok());
  const auto snapshot = router->TakeSnapshot();
  EXPECT_EQ(TotalPinned(snapshot), 2u);  // g1 (spilled) + g2 (live), not 3
  EXPECT_GE(snapshot.shards[0].metrics.counter(serve::Counter::kSpillDropped),
            1u);
}

TEST_F(ShardRouterTest, DoomedRequestsDoNotConsumeTenantQuota) {
  ShardRouterOptions options = Options(2);
  options.admission.tokens_per_second = 0.001;  // effectively no refill
  options.admission.burst = 2.0;
  auto router = MakeRouter(options);
  // Leaves 1 token.
  ASSERT_TRUE(Wait(router->Submit("t", Request::Create("a", 1))).status.ok());
  router->CrashShard(router->ShardOf("a"));
  // Guaranteed-to-fail requests (pinned to a down shard) must not debit
  // the bucket — a client retrying against a degraded cluster would
  // otherwise burn its whole budget on failures.
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(Wait(router->Submit("t", Request::Predict("a"))).status.code(),
              StatusCode::kUnavailable);
  // The surviving token still admits real work.
  EXPECT_TRUE(Wait(router->Submit("t", Request::Create("b", 2))).status.ok());
}

// Satellite: the cluster's merged latency percentiles must equal the
// percentiles computed from the UNION of the per-shard log2 histograms —
// same buckets, same count, same observed max — not an average of per-shard
// percentiles (which would be wrong whenever shard loads differ).
TEST_F(ShardRouterTest, SnapshotMergesLatencyHistogramsAsTheirUnion) {
  auto router = MakeRouter(Options(3));
  BuildSessions(
      24,
      [&](const std::string& id, int u) {
        return Wait(router->Submit("", Request::Create(id, u)));
      },
      [&](const std::string& id, int u, int p, double t) {
        return Wait(router->Submit("", Request::Append(id, u, p, t)));
      });
  for (int i = 0; i < 24; ++i)
    ASSERT_TRUE(
        Wait(router->Submit("", Request::Predict("sess-" + std::to_string(i))))
            .status.ok());

  const auto snap = router->TakeSnapshot();
  obs::Histogram::Snapshot merged;
  merged.buckets.assign(serve::ServeMetrics::kNumLatencyBuckets, 0);
  for (const auto& shard : snap.shards) {
    ASSERT_TRUE(shard.active);
    // Every shard served something, so the merge is a real 3-way union.
    ASSERT_GT(shard.metrics.latency_count, 0u) << shard.shard_id;
    for (size_t b = 0; b < merged.buckets.size(); ++b)
      merged.buckets[b] += shard.metrics.latency_buckets[b];
    merged.count += shard.metrics.latency_count;
    merged.max = std::max(merged.max, shard.metrics.latency_max_us);
  }
  EXPECT_EQ(snap.latency_count, merged.count);
  EXPECT_EQ(snap.latency_p50_us, merged.Percentile(0.50));
  EXPECT_EQ(snap.latency_p95_us, merged.Percentile(0.95));
  EXPECT_EQ(snap.latency_p99_us, merged.Percentile(0.99));
  // Percentiles are ordered and clamped by the union's max.
  EXPECT_LE(snap.latency_p50_us, snap.latency_p95_us);
  EXPECT_LE(snap.latency_p95_us, snap.latency_p99_us);
  EXPECT_LE(snap.latency_p99_us, static_cast<double>(merged.max));
}

// Acceptance: one request's spans share a trace id and are linked by flow
// events across at least two threads (submitter + shard worker).
TEST_F(ShardRouterTest, TraceIdLinksSpansAcrossThreadsViaFlowEvents) {
  obs::Tracer::Get().Clear();
  obs::Tracer::Get().Enable();
  auto router = MakeRouter(Options(3));
  ASSERT_TRUE(
      Wait(router->Submit("acme", Request::Create("traced", 1))).status.ok());
  auto submitted = router->Submit("acme", Request::Predict("traced"));
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  const ServeResponse r = submitted.value().get();
  obs::Tracer::Get().Disable();
  ASSERT_TRUE(r.status.ok()) << r.status;
  ASSERT_NE(r.trace_id, 0u) << "response must echo the request's trace id";

  const std::string hex =
      StrFormat("%llx", static_cast<unsigned long long>(r.trace_id));
  const std::string json = obs::Tracer::Get().ToChromeTraceJson();
  obs::Tracer::Get().Clear();

  // Walk the one-event-per-line serialization: collect the tids of X spans
  // carrying this trace id, and the flow phases keyed by it.
  std::set<int> span_tids;
  std::set<std::string> flow_phases;
  std::set<int> flow_tids;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    const bool is_span =
        line.find("\"trace_id\": \"" + hex + "\"") != std::string::npos;
    const bool is_flow =
        line.find("\"id\": \"" + hex + "\"") != std::string::npos;
    if (!is_span && !is_flow) continue;
    const size_t tid_pos = line.find("\"tid\": ");
    ASSERT_NE(tid_pos, std::string::npos) << line;
    const int tid = std::atoi(line.c_str() + tid_pos + 7);
    if (is_span) span_tids.insert(tid);
    if (is_flow) {
      const size_t ph_pos = line.find("\"ph\": \"");
      ASSERT_NE(ph_pos, std::string::npos) << line;
      flow_phases.insert(line.substr(ph_pos + 7, 1));
      flow_tids.insert(tid);
    }
  }
  EXPECT_GE(span_tids.size(), 2u)
      << "request spans must land on >= 2 threads";
  // The flow chain starts on the submitting thread ("s"), steps through the
  // queue hop ("t"), and finishes on the worker ("f") — so chrome://tracing
  // draws one arrow through the whole request.
  EXPECT_TRUE(flow_phases.count("s")) << json;
  EXPECT_TRUE(flow_phases.count("t")) << json;
  EXPECT_TRUE(flow_phases.count("f")) << json;
  EXPECT_GE(flow_tids.size(), 2u) << "flow must cross threads";
}

// Acceptance: a fault-injected deadline miss triggers a flight-recorder
// dump whose records include the doomed request's trace id.
TEST_F(ShardRouterTest, DeadlineExceededTriggersFlightDumpWithTraceId) {
  ShardRouterOptions options = Options(1);
  options.shard.num_workers = 1;
  options.flight_dir = ::testing::TempDir();
  const std::string dump_path = options.flight_dir + "/flight_shard_0.jsonl";
  std::remove(dump_path.c_str());
  auto router = MakeRouter(options);
  ASSERT_TRUE(
      Wait(router->Submit("acme", Request::Create("doomed", 1))).status.ok());

  // Every predict stalls 80 ms; the first occupies the lone worker, so the
  // second — carrying a 5 ms deadline — expires in the queue.
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(std::string(serve::kFaultServeSlowPredict) +
                             "=always@80")
                  .ok());
  auto blocker = router->Submit("acme", Request::Predict("doomed"));
  ASSERT_TRUE(blocker.ok()) << blocker.status();
  auto doomed =
      router->Submit("acme", Request::Predict("doomed", /*deadline_ms=*/5.0));
  ASSERT_TRUE(doomed.ok()) << doomed.status();
  const ServeResponse r = doomed.value().get();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded) << r.status;
  ASSERT_NE(r.trace_id, 0u);
  (void)blocker.value().get();

  // The worker dumped the shard's ring before fulfilling the promise, so
  // the file is already complete here.
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good()) << "expected anomaly dump at " << dump_path;
  std::stringstream content;
  content << in.rdbuf();
  const std::string dump = content.str();
  EXPECT_NE(dump.find("\"reason\": \"deadline_exceeded\""),
            std::string::npos);
  EXPECT_NE(dump.find(StrFormat(
                "\"trace_id\": \"%llx\"",
                static_cast<unsigned long long>(r.trace_id))),
            std::string::npos);
  EXPECT_NE(dump.find("\"status\": \"DeadlineExceeded\""), std::string::npos);
  std::remove(dump_path.c_str());
}

// On-demand dumps never collide: each DumpFlightRecorders call writes a
// fresh sequence-suffixed file set, and the retention cap deletes the
// oldest sets instead of letting the directory grow without bound.
TEST_F(ShardRouterTest, OnDemandDumpsAreSequencedAndRetained) {
  ShardRouterOptions options = Options(2);
  options.flight_dir = ::testing::TempDir() + "dump_seq";
  ASSERT_EQ(std::system(("rm -rf " + options.flight_dir + " && mkdir -p " +
                         options.flight_dir)
                            .c_str()),
            0);
  auto router = MakeRouter(options);
  ASSERT_TRUE(
      Wait(router->Submit("acme", Request::Create("sess", 1))).status.ok());

  // One set more than kFlightDumpRetention (16).
  for (size_t i = 0; i < kFlightDumpRetention + 1; ++i)
    ASSERT_TRUE(router->DumpFlightRecorders("collide_check").ok());
  EXPECT_EQ(router->on_demand_dump_count(), 17u);

  auto exists = [&](const std::string& name) {
    return std::ifstream(options.flight_dir + "/" + name).good();
  };
  // Newest sixteen sets retained, oldest evicted.
  EXPECT_FALSE(exists("flight_router.00001.jsonl"));
  EXPECT_FALSE(exists("flight_shard_0.00001.jsonl"));
  EXPECT_TRUE(exists("flight_router.00002.jsonl"));
  EXPECT_TRUE(exists("flight_router.00017.jsonl"));
  EXPECT_TRUE(exists("flight_shard_0.00017.jsonl"));
  EXPECT_TRUE(exists("flight_shard_1.00017.jsonl"));

  // Distinct files per call: the newest set holds exactly one dump header,
  // not seventeen appended ones.
  std::ifstream in(options.flight_dir + "/flight_router.00017.jsonl");
  std::stringstream content;
  content << in.rdbuf();
  const std::string dump = content.str();
  size_t headers = 0;
  for (size_t pos = dump.find("\"event\": \"flight_dump\"");
       pos != std::string::npos;
       pos = dump.find("\"event\": \"flight_dump\"", pos + 1))
    ++headers;
  EXPECT_EQ(headers, 1u) << dump;
  EXPECT_NE(dump.find("collide_check"), std::string::npos);

  // Unset flight_dir still fails fast.
  ShardRouterOptions no_dir = Options(1);
  auto bare = MakeRouter(no_dir);
  EXPECT_EQ(bare->DumpFlightRecorders("nope").code(),
            StatusCode::kFailedPrecondition);
}

// Acceptance: a deterministic over-quota scenario (fake clock) drives one
// tenant's burn rate over both window thresholds; ClusterHealth degrades
// while the well-behaved tenant's SLIs stay green.
TEST_F(ShardRouterTest, SustainedOverQuotaBurnDegradesHealthPerTenant) {
  ShardRouterOptions options = Options(2);
  options.admission.tokens_per_second = 1.0;  // 1 request/second sustained
  options.admission.burst = 2.0;
  options.slo.fast_window_seconds = 60;
  options.slo.slow_window_seconds = 120;
  std::atomic<int64_t> fake_second{1'000'000};
  options.clock = [&fake_second] {
    return std::chrono::steady_clock::time_point(
        std::chrono::seconds(fake_second.load()));
  };
  auto router = MakeRouter(options);
  EXPECT_EQ(router->ClusterHealth(), Health::kHealthy);

  // Two minutes of injected time: "calm" sends 1 rps (inside quota, all
  // good); "noisy" sends 20 rps against a 1 rps quota, so ~95% of its
  // requests reject with ResourceExhausted — an SLI error every time.
  for (int s = 0; s < 120; ++s) {
    fake_second.fetch_add(1);
    const Request create = Request::Create(StrFormat("calm-%d", s), 1);
    ASSERT_TRUE(Wait(router->Submit("calm", create)).status.ok());
    for (int i = 0; i < 20; ++i)
      (void)Wait(router->Submit(
          "noisy", Request::Create(StrFormat("noisy-%d-%d", s, i), 1)));
  }

  EXPECT_EQ(router->ClusterHealth(), Health::kDegraded)
      << "sustained burn must degrade cluster health";
  const auto snap = router->TakeSnapshot();
  EXPECT_EQ(snap.health, Health::kDegraded);
  const obs::TenantSli* calm = nullptr;
  const obs::TenantSli* noisy = nullptr;
  for (const auto& sli : snap.slo) {
    if (sli.tenant == "calm") calm = &sli;
    if (sli.tenant == "noisy") noisy = &sli;
  }
  ASSERT_NE(calm, nullptr);
  ASSERT_NE(noisy, nullptr);
  EXPECT_TRUE(noisy->burning);
  EXPECT_GT(noisy->fast_burn, obs::kSloFastBurnThreshold);
  EXPECT_GT(noisy->slow_burn, obs::kSloSlowBurnThreshold);
  EXPECT_FALSE(calm->burning);
  EXPECT_DOUBLE_EQ(calm->fast_burn, 0.0);
  EXPECT_DOUBLE_EQ(calm->slow_availability, 1.0);
  // The blast radius stops at observability: the noisy tenant's own
  // admitted requests and the calm tenant keep serving.
  EXPECT_TRUE(Wait(router->Submit("calm", Request::Create("calm-after", 1)))
                  .status.ok());

  // The router's black box kept records of the shed requests (op=Route).
  EXPECT_GT(router->router_flight_recorder().total_appended(), 0u);
  const auto records = router->router_flight_recorder().Snapshot();
  ASSERT_FALSE(records.empty());
  bool saw_route_shed = false;
  for (const auto& rec : records) {
    if (rec.op == obs::FlightOp::kRoute &&
        rec.status == static_cast<uint8_t>(StatusCode::kResourceExhausted))
      saw_route_shed = true;
  }
  EXPECT_TRUE(saw_route_shed);
}

/// Polls until `service`'s lone worker has taken everything off its queue.
void WaitQueueEmpty(PredictionService& service) {
  while (service.queue_depth() > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// Every sink counts the same requests. Two tenants create, append and
// predict on 2 shards (fake clock); the replay adds a NotFound, a deadline
// miss, a full queue, a quota rejection and a shutdown drain. Per shard, the
// flight ring agrees with ServeMetrics; per tenant, the SLO tracker agrees
// with the records of the shard and router rings.
TEST_F(ShardRouterTest, EverySinkCountsTheSameOutcomes) {
  ShardRouterOptions options = Options(2);
  options.shard.num_workers = 1;
  options.shard.max_batch = 1;
  options.shard.queue_capacity = 2;
  options.admission.shed_queue_fraction = 1.0;  // let the queue fill
  options.admission.tokens_per_second = 0.001;  // effectively no refill
  options.admission.burst = 60.0;
  const auto fake_now =
      std::chrono::steady_clock::time_point(std::chrono::seconds(1'000'000));
  options.clock = [fake_now] { return fake_now; };
  auto router = MakeRouter(options);

  const std::vector<std::string> tenants = {"alpha", "beta"};
  for (const std::string& tenant : tenants) {
    for (int i = 0; i < 3; ++i) {
      const std::string id = StrFormat("%s-%d", tenant.c_str(), i);
      ASSERT_TRUE(
          Wait(router->Submit(tenant, Request::Create(id, i))).status.ok());
      for (int e = 0; e < 2; ++e)
        ASSERT_TRUE(Wait(router->Submit(tenant, Request::Append(
                                                    id, 10 + e, e, 1.0 + e)))
                        .status.ok());
      ASSERT_TRUE(
          Wait(router->Submit(tenant, Request::Predict(id))).status.ok());
    }
  }
  EXPECT_EQ(Wait(router->Submit("alpha", Request::Predict("ghost")))
                .status.code(),
            StatusCode::kNotFound);

  // One predict holds shard X's worker; behind it a 5 ms-deadline predict
  // expires in the queue, a second predict fills the queue, and a third is
  // turned away by the full queue.
  const int x = router->ShardOf("alpha-0");
  PredictionService& shard_x = *router->shard(x);
  const std::string hold =
      std::string(serve::kFaultServeSlowPredict) + "=always@100";
  ASSERT_TRUE(fault::FaultRegistry::Get().Configure(hold).ok());
  auto blocker = router->Submit("alpha", Request::Predict("alpha-0"));
  ASSERT_TRUE(blocker.ok()) << blocker.status();
  WaitQueueEmpty(shard_x);
  auto doomed =
      router->Submit("beta", Request::Predict("alpha-0", /*deadline_ms=*/5.0));
  auto queued = router->Submit("alpha", Request::Predict("alpha-0"));
  EXPECT_EQ(Wait(router->Submit("beta", Request::Predict("alpha-0")))
                .status.code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(Wait(std::move(blocker)).status.ok());
  EXPECT_EQ(Wait(std::move(doomed)).status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(Wait(std::move(queued)).status.ok());
  fault::FaultRegistry::Get().Clear();

  // Beta spends the rest of its quota.
  StatusCode code = StatusCode::kOk;
  for (int i = 0; i < 100 && code != StatusCode::kResourceExhausted; ++i)
    code =
        Wait(router->Submit("beta", Request::Predict("beta-0"))).status.code();
  EXPECT_EQ(code, StatusCode::kResourceExhausted);

  // Shard X shuts down with two requests still queued behind a held one.
  ASSERT_TRUE(fault::FaultRegistry::Get().Configure(hold).ok());
  blocker = router->Submit("alpha", Request::Predict("alpha-0"));
  ASSERT_TRUE(blocker.ok()) << blocker.status();
  WaitQueueEmpty(shard_x);
  auto drained_a =
      router->Submit("alpha", Request::Append("alpha-0", 30, 0, 5.0));
  auto drained_b = router->Submit("alpha", Request::Predict("alpha-0"));
  shard_x.Shutdown();
  fault::FaultRegistry::Get().Clear();
  EXPECT_TRUE(Wait(std::move(blocker)).status.ok());
  EXPECT_EQ(Wait(std::move(drained_a)).status.code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(Wait(std::move(drained_b)).status.code(),
            StatusCode::kUnavailable);

  std::vector<obs::FlightRecord> all_records =
      router->router_flight_recorder().Snapshot();
  for (int id : router->ShardIds()) {
    SCOPED_TRACE(StrFormat("shard %d", id));
    PredictionService& service = *router->shard(id);
    const serve::ServeMetrics::Snapshot m = service.metrics().TakeSnapshot();
    const std::vector<obs::FlightRecord> records =
        service.flight_recorder().Snapshot();
    ASSERT_EQ(records.size(), service.flight_recorder().total_appended());
    const uint64_t total = m.counter(serve::Counter::kRequestsTotal);
    const uint64_t rejected = m.counter(serve::Counter::kRequestsRejected);
    const uint64_t drained = m.counter(serve::Counter::kShutdownDrained);
    uint64_t not_ok = 0;
    for (const obs::FlightRecord& record : records)
      not_ok += record.status != static_cast<uint8_t>(StatusCode::kOk);
    EXPECT_EQ(records.size(), total + rejected);
    EXPECT_EQ(m.latency_count, total - drained);
    EXPECT_EQ(not_ok,
              m.counter(serve::Counter::kErrors) + rejected + drained);
    if (id == x) {
      EXPECT_EQ(rejected, 1u);
      EXPECT_EQ(drained, 2u);
      EXPECT_EQ(m.counter(serve::Counter::kDeadlineExceeded), 1u);
    }
    all_records.insert(all_records.end(), records.begin(), records.end());
  }

  const std::vector<obs::TenantSli> slis = router->slo().Snapshot(fake_now);
  ASSERT_EQ(slis.size(), tenants.size());
  for (const obs::TenantSli& sli : slis) {
    SCOPED_TRACE(sli.tenant);
    uint64_t total = 0, good = 0;
    for (const obs::FlightRecord& record : all_records) {
      if (sli.tenant != record.tenant) continue;
      ++total;
      good += record.status == static_cast<uint8_t>(StatusCode::kOk);
    }
    EXPECT_EQ(sli.fast_total, total);
    EXPECT_EQ(sli.fast_good, good);
    EXPECT_EQ(sli.slow_total, total);
    EXPECT_EQ(sli.slow_good, good);
  }
}

// The SLO's latency is the request's time in the shard: a predict that
// queued behind a held worker past latency_slo_us is bad, although it ran
// fast once dequeued.
TEST_F(ShardRouterTest, SloCountsQueueWaitAgainstTheLatencyTarget) {
  ShardRouterOptions options = Options(1);
  options.shard.num_workers = 1;
  options.slo.latency_slo_us = 100'000;
  auto router = MakeRouter(options);
  ASSERT_TRUE(
      Wait(router->Submit("lat", Request::Create("held", 1))).status.ok());
  // Only the first predict sleeps; the second queues behind it.
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(std::string(serve::kFaultServeSlowPredict) +
                             "=nth:1@300")
                  .ok());
  auto first = router->Submit("lat", Request::Predict("held"));
  ASSERT_TRUE(first.ok()) << first.status();
  WaitQueueEmpty(*router->shard(0));
  auto second = router->Submit("lat", Request::Predict("held"));
  ASSERT_TRUE(Wait(std::move(first)).status.ok());
  ASSERT_TRUE(Wait(std::move(second)).status.ok());

  const std::vector<obs::FlightRecord> records =
      router->shard(0)->flight_recorder().Snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_GE(records[2].queue_wait_ns + records[2].exec_ns,
            uint64_t{100'000'000});
  const std::vector<obs::TenantSli> slis =
      router->slo().Snapshot(std::chrono::steady_clock::now());
  ASSERT_EQ(slis.size(), 1u);
  EXPECT_EQ(slis[0].fast_total, 3u);
  EXPECT_EQ(slis[0].fast_good, 1u) << "only the create met the target";
}

// /sloz is JSON: a tenant name with control bytes is JSON-escaped, not
// written with the exposition format's \x escapes.
TEST_F(ShardRouterTest, SlozEscapesHostileTenantNamesAsJson) {
  auto router = MakeRouter(Options(1));
  const std::string tenant = "a\tb\x01";
  ASSERT_TRUE(
      Wait(router->Submit(tenant, Request::Create("hostile", 1))).status.ok());
  obs::DebugServerOptions server_options;
  server_options.port = 0;
  auto server = obs::DebugServer::Start(server_options);
  ASSERT_TRUE(server.ok()) << server.status();
  router->RegisterDebugEndpoints(**server);
  const auto result = obs::HttpGet((*server)->port(), "/sloz");
  (*server)->Stop();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->status, 200);
  EXPECT_NE(result->body.find("\"tenant\":\"a\\tb\\u0001\""),
            std::string::npos)
      << result->body;
  EXPECT_EQ(result->body.find("\\x"), std::string::npos) << result->body;
}

}  // namespace
}  // namespace cascn::cluster

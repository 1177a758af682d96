// ShardRouter: routing, admission, crash shedding, and — the acceptance
// bar — a live rebalance that loses no session and leaves every session's
// next prediction bit-identical to an unsharded reference service.

#include "cluster/shard_router.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
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
using serve::ServeResponse;

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
    options.handoff_dir = ::testing::TempDir();
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
      [&](const std::string& id, int u) { return router->CallCreate("", id, u); },
      [&](const std::string& id, int u, int p, double t) {
        return router->CallAppend("", id, u, p, t);
      });
  std::map<int, int> per_shard;
  for (int i = 0; i < 24; ++i)
    ++per_shard[router->ShardOf("sess-" + std::to_string(i))];
  EXPECT_EQ(per_shard.size(), 3u) << "sessions all landed on one shard";
  for (int i = 0; i < 24; ++i) {
    const ServeResponse r =
        router->CallPredict("", "sess-" + std::to_string(i));
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_TRUE(std::isfinite(r.log_prediction));
  }
  EXPECT_EQ(router->ClusterHealth(), Health::kHealthy);
}

TEST_F(ShardRouterTest, SessionOperationsStayOnOnePin) {
  auto router = MakeRouter(Options(4));
  ASSERT_TRUE(router->CallCreate("", "pinned", 1).status.ok());
  const int home = router->ShardOf("pinned");
  for (int e = 0; e < 6; ++e) {
    ASSERT_TRUE(router->CallAppend("", "pinned", 2 + e, e, 1.0 + e).status.ok());
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
        return reference.value()->CallCreate(id, u);
      },
      [&](const std::string& id, int u, int p, double t) {
        return reference.value()->CallAppend(id, u, p, t);
      });
  std::map<std::string, double> expected;
  for (int i = 0; i < kSessions; ++i) {
    const std::string id = "sess-" + std::to_string(i);
    const ServeResponse r = reference.value()->CallPredict(id);
    ASSERT_TRUE(r.status.ok()) << r.status;
    expected[id] = r.log_prediction;
  }

  // Sharded cluster with the same sessions.
  auto router = MakeRouter(Options(3));
  BuildSessions(
      kSessions,
      [&](const std::string& id, int u) { return router->CallCreate("", id, u); },
      [&](const std::string& id, int u, int p, double t) {
        return router->CallAppend("", id, u, p, t);
      });

  // Drain + handoff shard 1.
  ASSERT_TRUE(router->RemoveShard(1).ok());
  EXPECT_EQ(router->num_shards(), 2);
  EXPECT_EQ(router->shard(1), nullptr);

  // Zero loss, bit-identical predictions, and nothing routed to shard 1.
  for (int i = 0; i < kSessions; ++i) {
    const std::string id = "sess-" + std::to_string(i);
    EXPECT_NE(router->ShardOf(id), 1) << id;
    const ServeResponse r = router->CallPredict("", id);
    ASSERT_TRUE(r.status.ok()) << id << ": " << r.status;
    EXPECT_EQ(r.log_prediction, expected[id]) << id;
  }
  EXPECT_EQ(router->ClusterHealth(), Health::kHealthy);
}

TEST_F(ShardRouterTest, RebalanceRetriesThroughInjectedTornWrite) {
  auto router = MakeRouter(Options(2));
  BuildSessions(
      12,
      [&](const std::string& id, int u) { return router->CallCreate("", id, u); },
      [&](const std::string& id, int u, int p, double t) {
        return router->CallAppend("", id, u, p, t);
      });
  std::map<std::string, double> before;
  for (int i = 0; i < 12; ++i) {
    const std::string id = "sess-" + std::to_string(i);
    const ServeResponse r = router->CallPredict("", id);
    ASSERT_TRUE(r.status.ok());
    before[id] = r.log_prediction;
  }

  // The first handoff write is torn mid-stream; the retry must land it and
  // the drain must still lose nothing.
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(std::string(kFaultHandoffTornWrite) + "=nth:1")
                  .ok());
  ASSERT_TRUE(router->RemoveShard(0).ok());
  EXPECT_GE(fault::FaultRegistry::Get()
                .stats(kFaultHandoffTornWrite)
                .fires,
            1u);
  for (const auto& [id, value] : before) {
    const ServeResponse r = router->CallPredict("", id);
    ASSERT_TRUE(r.status.ok()) << id << ": " << r.status;
    EXPECT_EQ(r.log_prediction, value) << id;
  }
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
      [&](const std::string& id, int u) { return router->CallCreate("", id, u); },
      [&](const std::string& id, int u, int p, double t) {
        return router->CallAppend("", id, u, p, t);
      });
  ASSERT_TRUE(router->RemoveShard(1).ok());
  for (int i = 0; i < 10; ++i) {
    const std::string id = "sess-" + std::to_string(i);
    const ServeResponse r = router->CallPredict("", id);
    ASSERT_TRUE(r.status.ok()) << id << ": " << r.status;
  }
}

TEST_F(ShardRouterTest, CrashShedsToSurvivorsAndRestartRejoins) {
  auto router = MakeRouter(Options(3));
  BuildSessions(
      18,
      [&](const std::string& id, int u) { return router->CallCreate("", id, u); },
      [&](const std::string& id, int u, int p, double t) {
        return router->CallAppend("", id, u, p, t);
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
    EXPECT_EQ(router->CallPredict("", id).status.code(),
              StatusCode::kUnavailable)
        << id;
  for (const auto& id : elsewhere)
    EXPECT_TRUE(router->CallPredict("", id).status.ok()) << id;

  // New sessions shed to the survivors.
  for (int i = 0; i < 12; ++i) {
    const std::string id = "fresh-" + std::to_string(i);
    ASSERT_TRUE(router->CallCreate("", id, i).status.ok()) << id;
    EXPECT_NE(router->ShardOf(id), 0) << id;
  }

  // Rejoin: the shard comes back, health recovers, and the sessions the
  // ring assigns to shard 0 are pulled over through the handoff path.
  ASSERT_TRUE(router->RestartShard(0).ok());
  EXPECT_EQ(router->ClusterHealth(), Health::kHealthy);
  EXPECT_EQ(router->num_shards(), 3);
  for (const auto& id : elsewhere)
    EXPECT_TRUE(router->CallPredict("", id).status.ok()) << id;
  for (int i = 0; i < 12; ++i) {
    const std::string id = "fresh-" + std::to_string(i);
    EXPECT_TRUE(router->CallPredict("", id).status.ok()) << id;
  }
  // Crashed-shard sessions were lost (as a crash loses memory) but can be
  // re-created now that the pin is released.
  for (const auto& id : on_crashed) {
    EXPECT_EQ(router->CallPredict("", id).status.code(),
              StatusCode::kNotFound)
        << id;
    EXPECT_TRUE(router->CallCreate("", id, 1).status.ok()) << id;
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
        router->CallCreate("", "chaos-" + std::to_string(i), i % 5);
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
        router->CallCreate("tenant-x", "q-" + std::to_string(i), i);
    if (r.status.ok()) ++ok;
    if (r.status.code() == StatusCode::kResourceExhausted) ++exhausted;
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(exhausted, 7);
  // The unnamed tenant is exempt.
  EXPECT_TRUE(router->CallCreate("", "exempt", 1).status.ok());
  const auto snapshot = router->TakeSnapshot();
  ASSERT_EQ(snapshot.tenants.size(), 1u);
  EXPECT_EQ(snapshot.tenants[0].tenant, "tenant-x");
  EXPECT_EQ(snapshot.tenants[0].admitted, 3u);
  EXPECT_EQ(snapshot.tenants[0].rejected, 7u);
  EXPECT_EQ(snapshot.total_shed, 7u);
}

TEST_F(ShardRouterTest, SlowShardFaultOnlySlowsTheNamedShard) {
  auto router = MakeRouter(Options(2));
  ASSERT_TRUE(router->CallCreate("", "a", 1).status.ok());
  ASSERT_TRUE(router->CallAppend("", "a", 2, 0, 1.0).status.ok());
  const int home = router->ShardOf("a");
  const int other = home == 0 ? 1 : 0;
  // Slow the *other* shard; session "a" must be unaffected by a deadline
  // that the slowed shard could never meet.
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(SlowShardFaultPoint(other) + "=always@200")
                  .ok());
  auto submitted = router->SubmitPredict("", "a", /*deadline_ms=*/100.0);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  const ServeResponse r = submitted.value().get();
  EXPECT_TRUE(r.status.ok()) << r.status;
}

TEST_F(ShardRouterTest, ExportsLabeledPerShardAndClusterMetrics) {
  auto router = MakeRouter(Options(2));
  ASSERT_TRUE(router->CallCreate("acme", "m1", 1).status.ok());
  ASSERT_TRUE(router->CallPredict("acme", "m1").status.ok());
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
  ASSERT_TRUE(router->CallCreate("", "only", 1).status.ok());
  EXPECT_EQ(router->RemoveShard(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(router->CallPredict("", "only").status.ok());
}

uint64_t TotalPinned(const ShardRouter::Snapshot& snap) {
  uint64_t total = 0;
  for (const auto& shard : snap.shards) total += shard.pinned_sessions;
  return total;
}

TEST_F(ShardRouterTest, ResolvingAnAsyncCloseReleasesThePin) {
  auto router = MakeRouter(Options(2));
  ASSERT_TRUE(router->CallCreate("", "s", 1).status.ok());
  EXPECT_EQ(TotalPinned(router->TakeSnapshot()), 1u);
  auto submitted = router->SubmitClose("", "s");
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  ASSERT_TRUE(submitted.value().get().status.ok());
  // The async close did its own pin bookkeeping — no blocking CallClose
  // needed, and the load metric no longer counts the dead session.
  EXPECT_EQ(TotalPinned(router->TakeSnapshot()), 0u);
  EXPECT_EQ(router->CallPredict("", "s").status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(router->CallCreate("", "s", 2).status.ok());
}

// A re-create rejected by admission must leave the pin alone: the earlier
// close still owns the pin's generation and releases it when resolved.
TEST_F(ShardRouterTest, RejectedRecreateDoesNotLeakThePin) {
  ShardRouterOptions options = Options(2);
  options.admission.tokens_per_second = 0.001;  // effectively no refill
  options.admission.burst = 2.0;
  auto router = MakeRouter(options);
  ASSERT_TRUE(router->CallCreate("t", "s", 1).status.ok());
  auto close = router->SubmitClose("t", "s");
  ASSERT_TRUE(close.ok()) << close.status();
  EXPECT_EQ(router->CallCreate("t", "s", 2).status.code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(close.value().get().status.ok());
  EXPECT_EQ(TotalPinned(router->TakeSnapshot()), 0u);
}

TEST_F(ShardRouterTest, RemoveShardSweepsStalePinsSoTheIdStaysUsable) {
  auto router = MakeRouter(Options(2));
  ASSERT_TRUE(router->CallCreate("", "stale", 1).status.ok());
  const int home = router->ShardOf("stale");
  // Close behind the router's back: the session is gone from the shard but
  // the router still carries its pin.
  ASSERT_TRUE(router->shard(home)->CallClose("stale").status.ok());
  ASSERT_TRUE(router->RemoveShard(home).ok());
  // The sweep at the end of RemoveShard erased the stale pin; without it,
  // every request for this id — including Create — would be Unavailable
  // ("pinned to shard which is down") forever.
  EXPECT_NE(router->ShardOf("stale"), home);
  EXPECT_TRUE(router->CallCreate("", "stale", 2).status.ok());
  EXPECT_TRUE(router->CallPredict("", "stale").status.ok());
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
  ASSERT_TRUE(router->CallCreate("", "g0", 1).status.ok());
  ASSERT_TRUE(router->CallCreate("", "g1", 2).status.ok());
  ASSERT_TRUE(router->CallCreate("", "g2", 3).status.ok());  // drops "g0"
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
  ASSERT_TRUE(router->CallCreate("t", "a", 1).status.ok());  // 1 token left
  router->CrashShard(router->ShardOf("a"));
  // Guaranteed-to-fail requests (pinned to a down shard) must not debit
  // the bucket — a client retrying against a degraded cluster would
  // otherwise burn its whole budget on failures.
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(router->CallPredict("t", "a").status.code(),
              StatusCode::kUnavailable);
  // The surviving token still admits real work.
  EXPECT_TRUE(router->CallCreate("t", "b", 2).status.ok());
}

// Satellite: the cluster's merged latency percentiles must equal the
// percentiles computed from the UNION of the per-shard log2 histograms —
// same buckets, same count, same observed max — not an average of per-shard
// percentiles (which would be wrong whenever shard loads differ).
TEST_F(ShardRouterTest, SnapshotMergesLatencyHistogramsAsTheirUnion) {
  auto router = MakeRouter(Options(3));
  BuildSessions(
      24,
      [&](const std::string& id, int u) { return router->CallCreate("", id, u); },
      [&](const std::string& id, int u, int p, double t) {
        return router->CallAppend("", id, u, p, t);
      });
  for (int i = 0; i < 24; ++i)
    ASSERT_TRUE(
        router->CallPredict("", "sess-" + std::to_string(i)).status.ok());

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
  ASSERT_TRUE(router->CallCreate("acme", "traced", 1).status.ok());
  auto submitted = router->SubmitPredict("acme", "traced");
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
  ASSERT_TRUE(router->CallCreate("acme", "doomed", 1).status.ok());

  // Every predict stalls 80 ms; the first occupies the lone worker, so the
  // second — carrying a 5 ms deadline — expires in the queue.
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(std::string(serve::kFaultServeSlowPredict) +
                             "=always@80")
                  .ok());
  auto blocker = router->SubmitPredict("acme", "doomed");
  ASSERT_TRUE(blocker.ok()) << blocker.status();
  auto doomed = router->SubmitPredict("acme", "doomed", /*deadline_ms=*/5.0);
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
  options.flight_dump_retention = 2;
  ASSERT_EQ(std::system(("rm -rf " + options.flight_dir + " && mkdir -p " +
                         options.flight_dir)
                            .c_str()),
            0);
  auto router = MakeRouter(options);
  ASSERT_TRUE(router->CallCreate("acme", "sess", 1).status.ok());

  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(router->DumpFlightRecorders("collide_check").ok());
  EXPECT_EQ(router->on_demand_dump_count(), 3u);

  auto exists = [&](const std::string& name) {
    return std::ifstream(options.flight_dir + "/" + name).good();
  };
  // Newest two sets retained, oldest evicted (retention = 2).
  EXPECT_FALSE(exists("flight_router.00001.jsonl"));
  EXPECT_FALSE(exists("flight_shard_0.00001.jsonl"));
  EXPECT_TRUE(exists("flight_router.00002.jsonl"));
  EXPECT_TRUE(exists("flight_router.00003.jsonl"));
  EXPECT_TRUE(exists("flight_shard_0.00003.jsonl"));
  EXPECT_TRUE(exists("flight_shard_1.00003.jsonl"));

  // Distinct files per call: the newest set holds exactly one dump header,
  // not three appended ones.
  std::ifstream in(options.flight_dir + "/flight_router.00003.jsonl");
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
    ASSERT_TRUE(
        router->CallCreate("calm", StrFormat("calm-%d", s), 1).status.ok());
    for (int i = 0; i < 20; ++i)
      (void)router->CallCreate("noisy", StrFormat("noisy-%d-%d", s, i), 1);
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
  EXPECT_GT(noisy->fast_burn, options.slo.fast_burn_threshold);
  EXPECT_GT(noisy->slow_burn, options.slo.slow_burn_threshold);
  EXPECT_FALSE(calm->burning);
  EXPECT_DOUBLE_EQ(calm->fast_burn, 0.0);
  EXPECT_DOUBLE_EQ(calm->slow_availability, 1.0);
  // The blast radius stops at observability: the noisy tenant's own
  // admitted requests and the calm tenant keep serving.
  EXPECT_TRUE(router->CallCreate("calm", "calm-after", 1).status.ok());

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

}  // namespace
}  // namespace cascn::cluster

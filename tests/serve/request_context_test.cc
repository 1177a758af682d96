// RequestContext propagation through the bare (unsharded) enqueue path:
// the trace id a caller mints must ride the queue handoff into the worker
// and come back on the ServeResponse — byte-identical to how the shard
// router's edge-minted contexts survive the same hop — and must stamp the
// flight-recorder record the worker writes. Also pins the one deadline
// rule, RequestContext::ResolveDeadline.

#include <chrono>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../testing/test_data.h"
#include "cluster/shard_router.h"
#include "obs/request_context.h"
#include "serve/checkpoint.h"
#include "serve/prediction_service.h"

namespace cascn::serve {
namespace {

std::string TempCheckpoint(const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "cascn_reqctx_" + name + ".ckpt";
  CascnConfig config = cascn::testing::TinyCascnConfig();
  CascnModel model(config);
  model.set_output_offset(2.0);
  EXPECT_TRUE(SaveCascnCheckpoint(path, model).ok());
  return path;
}

ServiceOptions BareOptions() {
  ServiceOptions options;
  options.num_workers = 2;
  options.sessions.observation_window = 60.0;
  return options;
}

bool FlightHasTrace(const obs::FlightRecorder& flight, uint64_t trace_id,
                    obs::FlightOp op) {
  for (const obs::FlightRecord& r : flight.Snapshot())
    if (r.trace_id == trace_id && r.op == op) return true;
  return false;
}

TEST(RequestContextPropagationTest, BareEnqueuePreservesCallerTraceId) {
  auto service = PredictionService::CreateFromCheckpoint(
      BareOptions(), TempCheckpoint("bare"));
  ASSERT_TRUE(service.ok()) << service.status();

  // The session id travels once, in the Request; the context names none.
  obs::RequestContext ctx = obs::RequestContext::New("acme", "");
  ASSERT_NE(ctx.trace_id, 0u);
  const uint64_t minted = ctx.trace_id;

  auto created = (*service)->Submit(Request::Create("s1", 1), ctx);
  ASSERT_TRUE(created.ok()) << created.status();
  ServeResponse response = created->get();
  ASSERT_TRUE(response.status.ok()) << response.status;
  // The id minted at the edge is the id the worker answered under: the
  // queue handoff (promise/future across threads) preserved the context.
  EXPECT_EQ(response.trace_id, minted);

  // Follow-up ops under fresh contexts each carry their own id.
  obs::RequestContext append_ctx = obs::RequestContext::New("acme", "");
  auto appended =
      (*service)->Submit(Request::Append("s1", 2, 0, 1.0), append_ctx);
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(appended->get().trace_id, append_ctx.trace_id);

  obs::RequestContext predict_ctx = obs::RequestContext::New("acme", "");
  auto predicted = (*service)->Submit(Request::Predict("s1"), predict_ctx);
  ASSERT_TRUE(predicted.ok());
  response = predicted->get();
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.trace_id, predict_ctx.trace_id);

  // The same id reached the black box: the worker stamped its flight
  // record with the caller's context, not a re-minted one.
  EXPECT_TRUE(FlightHasTrace((*service)->flight_recorder(),
                             predict_ctx.trace_id, obs::FlightOp::kPredict));
  const std::vector<obs::FlightRecord> records =
      (*service)->flight_recorder().Snapshot();
  bool tenant_seen = false;
  for (const obs::FlightRecord& r : records)
    if (r.trace_id == predict_ctx.trace_id &&
        std::string(r.tenant) == "acme")
      tenant_seen = true;
  EXPECT_TRUE(tenant_seen) << "tenant must ride the context into the ring";
  for (const obs::FlightRecord& r : records) {
    if (r.trace_id == predict_ctx.trace_id) {
      EXPECT_EQ(std::string(r.session), "s1")
          << "the request's session id must move into the context";
    }
  }
}

TEST(RequestContextPropagationTest, ContextFreeSubmitMintsNonzeroId) {
  auto service = PredictionService::CreateFromCheckpoint(
      BareOptions(), TempCheckpoint("minted"));
  ASSERT_TRUE(service.ok()) << service.status();
  auto created = (*service)->Submit(Request::Create("s1", 1));
  ASSERT_TRUE(created.ok());
  const ServeResponse response = created->get();
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_NE(response.trace_id, 0u) << "bare submits mint a context";
}

TEST(RequestContextPropagationTest, RouterAndBarePathsAgree) {
  // The same request shape through both front doors: the router mints at
  // its edge, the bare service at its own — both must surface the id that
  // executed, and both must land it in the executing shard's flight ring.
  const std::string checkpoint = TempCheckpoint("router");
  cluster::ShardRouterOptions options;
  options.num_shards = 2;
  options.shard.num_workers = 1;
  options.shard.sessions.observation_window = 60.0;
  auto router = cluster::ShardRouter::CreateFromCheckpoint(options, checkpoint);
  ASSERT_TRUE(router.ok()) << router.status();

  const ServeResponse created =
      Wait((*router)->Submit("acme", Request::Create("sess", 1)));
  ASSERT_TRUE(created.status.ok()) << created.status;
  EXPECT_NE(created.trace_id, 0u);

  const ServeResponse predicted =
      Wait((*router)->Submit("acme", Request::Predict("sess")));
  ASSERT_TRUE(predicted.status.ok()) << predicted.status;
  EXPECT_NE(predicted.trace_id, 0u);
  EXPECT_NE(predicted.trace_id, created.trace_id)
      << "router mints per request, not per session";

  const int shard_id = (*router)->ShardOf("sess");
  ASSERT_GE(shard_id, 0);
  PredictionService* shard = (*router)->shard(shard_id);
  ASSERT_NE(shard, nullptr);
  EXPECT_TRUE(FlightHasTrace(shard->flight_recorder(), predicted.trace_id,
                             obs::FlightOp::kPredict))
      << "router-minted id must survive the shard queue handoff";
}

TEST(RequestContextDeadlineTest, ResolveDeadlineAppliesTheOneRule) {
  struct Case {
    const char* name;
    double deadline_ms;
    double default_ms;
    double want_ms;  // 0 = no deadline
  };
  const Case cases[] = {
      {"explicit", 50.0, 0.0, 50.0},
      {"explicit beats the default", 50.0, 200.0, 50.0},
      {"service default", 0.0, 200.0, 200.0},
      {"no default", 0.0, 0.0, 0.0},
      {"none", -1.0, 200.0, 0.0},
  };
  using Clock = std::chrono::steady_clock;
  for (const Case& c : cases) {
    obs::RequestContext ctx;
    const Clock::time_point before = Clock::now();
    ctx.ResolveDeadline(c.deadline_ms, c.default_ms);
    const Clock::time_point after = Clock::now();
    EXPECT_EQ(ctx.has_deadline, c.want_ms > 0.0) << c.name;
    if (!ctx.has_deadline) continue;
    const auto budget = std::chrono::microseconds(
        static_cast<int64_t>(c.want_ms * 1000.0));
    EXPECT_GE(ctx.deadline, before + budget) << c.name;
    EXPECT_LE(ctx.deadline, after + budget) << c.name;
  }
}

TEST(RequestContextDeadlineTest, AnAbsoluteDeadlineIsKept) {
  // A retry re-enters with the context its first attempt resolved: it must
  // keep the original point, whatever budget it is offered again.
  obs::RequestContext ctx;
  ctx.ResolveDeadline(10.0, 0.0);
  ASSERT_TRUE(ctx.has_deadline);
  const auto original = ctx.deadline;
  for (const double deadline_ms : {1000.0, 0.0, -1.0}) {
    ctx.ResolveDeadline(deadline_ms, 5000.0);
    EXPECT_TRUE(ctx.has_deadline) << deadline_ms;
    EXPECT_EQ(ctx.deadline, original) << deadline_ms;
  }
}

}  // namespace
}  // namespace cascn::serve

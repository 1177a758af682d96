#include "cluster/shard_router.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "fault/fault.h"
#include "obs/trace.h"

namespace cascn::cluster {

using serve::Health;
using serve::PredictionService;
using serve::ServeResponse;
using serve::ServiceOptions;

/// How long a rebalance (RemoveShard, RestartShard's pull) waits for a
/// source shard's queued requests to pass before giving up with
/// DeadlineExceeded.
constexpr std::chrono::milliseconds kDrainTimeout{5000};

std::string SlowShardFaultPoint(int shard_id) {
  return std::string(kFaultSlowShardPrefix) + std::to_string(shard_id);
}

ShardRouter::ShardRouter(const ShardRouterOptions& options,
                         std::string checkpoint_path)
    : options_(options),
      checkpoint_path_(std::move(checkpoint_path)),
      admission_(options.admission),
      clock_(options.clock ? options.clock
                           : [] { return std::chrono::steady_clock::now(); }),
      slo_(options.slo) {
  if (!options_.flight_dir.empty())
    router_flight_.SetDumpPath(options_.flight_dir + "/flight_router.jsonl");
  if (options_.resilience.enabled) {
    // Jitter is seeded from the fault registry so a chaos run's retries are
    // as reproducible as its faults. Breaker flips and supervisor actions
    // snapshot the router's black box (no-op without flight_dir).
    resilience_ = std::make_shared<ResilienceControl>(
        options_.resilience, fault::FaultRegistry::Get().seed(),
        [this](int /*shard_id*/, std::string_view reason) {
          router_flight_.TriggerDump(reason);
        });
  }
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::CreateFromCheckpoint(
    const ShardRouterOptions& options, const std::string& checkpoint_path) {
  if (options.num_shards < 1)
    return Status::InvalidArgument(
        StrFormat("num_shards must be >= 1, got %d", options.num_shards));
  std::unique_ptr<ShardRouter> router(
      new ShardRouter(options, checkpoint_path));
  std::vector<int> ids;
  for (int i = 0; i < options.num_shards; ++i) {
    CASCN_ASSIGN_OR_RETURN(std::shared_ptr<PredictionService> service,
                           router->StartShard(i));
    router->shards_[i] = Shard{std::move(service)};
    ids.push_back(i);
  }
  router->ring_.SetShards(ids);
  router->all_ring_.SetShards(ids);
  return router;
}

ShardRouter::~ShardRouter() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, shard] : shards_) shard.service->Shutdown();
  shards_.clear();
}

ServiceOptions ShardRouter::ShardServiceOptions(int shard_id) const {
  ServiceOptions opts = options_.shard;
  opts.extra_predict_fault_point = SlowShardFaultPoint(shard_id);
  opts.shard_id = shard_id;
  if (!options_.flight_dir.empty())
    opts.flight_dump_path =
        StrFormat("%s/flight_shard_%d.jsonl", options_.flight_dir.c_str(),
                  shard_id);
  // Every terminal outcome on this shard is observed, on worker threads and
  // in the shard's Shutdown drain. The sinks are declared before shards_,
  // which ~ShardRouter shuts down first, so they outlive every call.
  opts.on_complete = std::bind_front(&ShardRouter::Observe, this);
  // A rebalance moves *every* session a client still cares about, including
  // LRU-evicted ones, so keep evicted histories spilled by default.
  if (opts.sessions.spill_capacity == 0)
    opts.sessions.spill_capacity = opts.sessions.capacity;
  // When the bounded spill LRU discards a session's history anyway, its pin
  // must go too — otherwise pins_ grows without bound and keeps skewing the
  // placement load metric. Captures the shared pin state, not the router:
  // the callback runs on shard worker threads under the shard's session
  // table lock (pins_->mutex is a leaf lock, so that nesting is safe).
  opts.sessions.on_spill_drop = [pins = pins_,
                                 shard_id](const std::string& session_id) {
    std::lock_guard<std::mutex> lock(pins->mutex);
    const auto it = pins->session_shard.find(session_id);
    if (it != pins->session_shard.end() && it->second.shard_id == shard_id)
      UnpinLocked(*pins, it);
  };
  return opts;
}

void ShardRouter::SetPin(PinState& pins, const std::string& session_id,
                         int shard_id) {
  std::lock_guard<std::mutex> lock(pins.mutex);
  const auto it = pins.session_shard.find(session_id);
  if (it != pins.session_shard.end()) UnpinLocked(pins, it);
  pins.session_shard[session_id] =
      PinState::Pin{shard_id, ++pins.next_generation};
  ++pins.shard_load[shard_id];
}

void ShardRouter::UnpinLocked(PinState& pins, PinState::PinMap::iterator it) {
  const auto load = pins.shard_load.find(it->second.shard_id);
  if (load != pins.shard_load.end() && load->second > 0) --load->second;
  pins.session_shard.erase(it);
}

void ShardRouter::DropPinsInto(PinState& pins, int shard_id) {
  std::lock_guard<std::mutex> lock(pins.mutex);
  std::erase_if(pins.session_shard, [shard_id](const auto& pin) {
    return pin.second.shard_id == shard_id;
  });
  pins.shard_load.erase(shard_id);
}

void ShardRouter::RebuildRingLocked() {
  std::vector<int> ids;
  for (const auto& [id, shard] : shards_)
    if (draining_.count(id) == 0) ids.push_back(id);
  ring_.SetShards(ids);
  // Full-membership ring (active + draining + crashed): the crashed-owner
  // check in Route consults this so a session that died with its shard
  // reports Unavailable-until-restart, not a survivor's NotFound.
  std::vector<int> all;
  for (const auto& [id, shard] : shards_) all.push_back(id);
  for (int id : crashed_) all.push_back(id);
  all_ring_.SetShards(all);
}

Result<std::shared_ptr<PredictionService>> ShardRouter::StartShard(
    int shard_id) {
  CASCN_ASSIGN_OR_RETURN(
      std::unique_ptr<PredictionService> service,
      PredictionService::CreateFromCheckpoint(ShardServiceOptions(shard_id),
                                              checkpoint_path_));
  return std::shared_ptr<PredictionService>(std::move(service));
}

void ShardRouter::Observe(const obs::RequestContext& ctx,
                          const obs::FlightRecord& record) const {
  const auto code = static_cast<StatusCode>(record.status);
  // The SLI reads the request's whole time in the shard, queue wait
  // included: a request that queued past the latency SLO was served late.
  if (!ctx.tenant.empty())
    slo_.RecordRequest(ctx.tenant, clock_(), code == StatusCode::kOk,
                       (record.queue_wait_ns + record.exec_ns) / 1000);
  if (resilience_ && record.shard_id >= 0)
    resilience_->OnShardResult(record.shard_id, IsShardFailure(code),
                               clock_());
  if (record.op == obs::FlightOp::kClose) {
    // A close's terminal record settles its pending pin release: a
    // successful close releases the pin it was submitted against, any
    // other outcome (queue full, shutdown drain, NotFound) keeps it.
    std::lock_guard<std::mutex> lock(pins_->mutex);
    const auto pending = pins_->closing.find(ctx.trace_id);
    if (pending == pins_->closing.end()) return;
    const auto pin = pins_->session_shard.find(ctx.session_id);
    if (code == StatusCode::kOk && pin != pins_->session_shard.end() &&
        pin->second.generation == pending->second)
      UnpinLocked(*pins_, pin);
    pins_->closing.erase(pending);
  }
}

void ShardRouter::RecordRejection(const obs::RequestContext& ctx,
                                  const Status& status) {
  const obs::FlightRecord record =
      obs::FlightRecord::Of(ctx, -1, obs::FlightOp::kRoute, status.code());
  router_flight_.Append(record);
  Observe(ctx, record);
  if (status.code() == StatusCode::kResourceExhausted) {
    // An overloaded tenant sheds thousands of requests per second and each
    // dump serializes the whole ring: cap anomaly dumps at one per second
    // (injected clock, so tests stay deterministic). The ring keeps every
    // record either way; only the file append is throttled.
    const int64_t second = std::chrono::duration_cast<std::chrono::seconds>(
                               clock_().time_since_epoch())
                               .count();
    int64_t last = last_shed_dump_second_.load(std::memory_order_relaxed);
    if (last != second &&
        last_shed_dump_second_.compare_exchange_strong(
            last, second, std::memory_order_relaxed))
      router_flight_.TriggerDump("load_shed");
  }
}

Result<std::shared_ptr<PredictionService>> ShardRouter::Route(
    const obs::RequestContext& ctx, bool create, bool is_retry) {
  const std::string& tenant = ctx.tenant;
  const std::string& session_id = ctx.session_id;
  // Chaos hook: an armed "cluster.shard_crash" kills the shard named by its
  // @V payload in the middle of routed load. Evaluated before taking the
  // routing lock (the crash itself needs it).
  if (fault::ShouldFire(kFaultShardCrash)) {
    const int victim = static_cast<int>(
        fault::FaultRegistry::Get().ArmedValue(kFaultShardCrash, -1.0));
    if (victim >= 0) CrashShard(victim);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  // Routing feasibility and the load-shed gate run BEFORE the tenant token
  // is charged: a request that is guaranteed to fail must not consume
  // quota, or retries against a degraded cluster compound the outage.
  if (shards_.empty())
    return Status::Unavailable("no active shards in the cluster");

  int target = -1;
  bool pinned = false;
  {
    std::lock_guard<std::mutex> pin_lock(pins_->mutex);
    const auto pin = pins_->session_shard.find(session_id);
    if (pin != pins_->session_shard.end()) {
      pinned = true;
      target = pin->second.shard_id;
    }
  }
  if (pinned) {
    if (shards_.find(target) == shards_.end())
      return Status::Unavailable(
          StrFormat("session '%s' is pinned to shard %d, which is down",
                    session_id.c_str(), target));
    if (draining_.count(target) > 0)
      return Status::Unavailable(
          StrFormat("session '%s' is pinned to shard %d, which is "
                    "draining; retry shortly",
                    session_id.c_str(), target));
    if (migrating_.count(session_id) > 0)
      return Status::Unavailable(StrFormat(
          "session '%s' is migrating to another shard; retry shortly",
          session_id.c_str()));
    // The breaker gates pinned traffic at routing time: an open shard is
    // rejected retryably here instead of timing the request out inside the
    // sick shard. (AllowShard flips open -> half-open once the cooldown
    // elapses, so the pinned traffic itself is the probe.)
    if (resilience_ && !resilience_->AllowShard(target, clock_()))
      return Status::Unavailable(StrFormat(
          "session '%s' is pinned to shard %d, whose circuit breaker is "
          "open; retry shortly",
          session_id.c_str(), target));
  } else if (create) {
    if (ring_.empty())
      return Status::Unavailable("every shard is draining");
    // Breaker-aware placement: open shards are pushed past the bounded-load
    // bound (the ring walk skips them), half-open shards carry a smaller
    // penalty so probation traffic trickles back before full ring weight.
    target = ring_.PickShard(session_id, [this](int s) {
      uint64_t load;
      {
        std::lock_guard<std::mutex> pin_lock(pins_->mutex);
        const auto it = pins_->shard_load.find(s);
        load = it == pins_->shard_load.end() ? uint64_t{0} : it->second;
      }
      if (resilience_) {
        switch (resilience_->ShardState(s)) {
          case BreakerState::kOpen:
            load += uint64_t{1} << 40;
            break;
          case BreakerState::kHalfOpen:
            load += uint64_t{1} << 20;
            break;
          case BreakerState::kClosed:
            break;
        }
      }
      return load;
    });
    if (resilience_ && !resilience_->AllowShard(target, clock_()))
      return Status::Unavailable(StrFormat(
          "shard %d's circuit breaker is open (no healthy placement for "
          "session '%s'); retry shortly",
          target, session_id.c_str()));
  } else {
    if (ring_.empty())
      return Status::Unavailable("every shard is draining");
    // No pin and not a create. If the FULL-membership ring (including
    // crashed shards) says the session's owner is a crashed shard, the
    // session — if it ever existed — died with it. Reporting Unavailable
    // keeps the loss retryable: a submit that loses the race with
    // CrashShard must not see a survivor's NotFound and give the session
    // up for dead when a restart (and re-create) will heal it.
    if (!crashed_.empty() && !all_ring_.empty()) {
      const int full_owner = all_ring_.OwnerOf(session_id);
      if (crashed_.count(full_owner) > 0)
        return Status::Unavailable(StrFormat(
            "session '%s' maps to crashed shard %d; any state it had was "
            "lost — retry after the shard restarts",
            session_id.c_str(), full_owner));
    }
    // Otherwise route to the ring owner so the NotFound comes from the
    // right shard.
    target = ring_.OwnerOf(session_id);
    if (resilience_ && !resilience_->AllowShard(target, clock_()))
      return Status::Unavailable(StrFormat(
          "shard %d's circuit breaker is open; retry shortly", target));
  }

  std::shared_ptr<PredictionService> service = shards_.at(target).service;
  CASCN_RETURN_IF_ERROR(
      admission_.AdmitLoad(service->queue_depth(), service->queue_capacity()));
  // A retry re-dispatch rides on the original request's quota charge; it
  // still paid the feasibility, breaker, and load-shed gates above.
  if (!is_retry)
    CASCN_RETURN_IF_ERROR(admission_.AdmitTenant(tenant, clock_()));
  // A create pins only once admitted. Re-creating under an existing pin
  // starts a new pin generation, so a still-unresolved close of the
  // PREVIOUS incarnation cannot release the new session's pin — and a
  // rejected re-create keeps the old generation, so that close still can.
  if (create) SetPin(*pins_, session_id, target);
  return service;
}

Result<std::shared_ptr<PredictionService>> ShardRouter::RouteRequest(
    const obs::RequestContext& ctx, bool create) {
  CASCN_TRACE_SPAN_ID("cluster_route", ctx.trace_id, obs::SpanFlow::kNone);
  if (resilience_) resilience_->OnRequestObserved();
  Result<std::shared_ptr<PredictionService>> service = Route(ctx, create);
  if (!service.ok()) RecordRejection(ctx, service.status());
  return service;
}

Result<std::future<ServeResponse>> ShardRouter::Submit(
    const std::string& tenant, serve::Request request) {
  using Op = serve::Request::Op;
  // The request enters the cluster here. Its session id moves into the
  // context, and its deadline becomes an ABSOLUTE point exactly once, so a
  // retry dispatched later inherits only the REMAINING time. The shard's
  // Submit takes both from the context.
  obs::RequestContext ctx =
      obs::RequestContext::New(tenant, std::exchange(request.session_id, {}));
  ctx.ResolveDeadline(request.deadline_ms, options_.shard.default_deadline_ms);
  // A create pins its session: Route sets the pin once admitted.
  Result<std::shared_ptr<PredictionService>> service =
      RouteRequest(ctx, request.op == Op::kCreate);

  if (request.op == Op::kPredict && resilience_) {
    // A routing rejection is not final here: the retry and stale policies
    // may still answer it. All of that policy (single retry under the
    // budget with the remaining deadline, stale fallback) runs when the
    // caller resolves the future — predicts are idempotent, so the
    // re-dispatch is safe. The wrapper captures `this`: resolve predict
    // futures before destroying the router (same contract as the debug
    // endpoints). Without resilience the caller gets the shard's own
    // future, below.
    Result<std::future<ServeResponse>> first =
        service.ok() ? service.value()->Submit(std::move(request), ctx)
                     : Result<std::future<ServeResponse>>(service.status());
    return std::async(std::launch::deferred,
                      [this, ctx = std::move(ctx),
                       first = std::move(first)]() mutable {
                        return ResolvePredictResilient(std::move(ctx),
                                                       std::move(first));
                      });
  }
  if (!service.ok()) return service.status();
  if (request.op != Op::kClose)
    return service.value()->Submit(std::move(request), std::move(ctx));

  // A closing session has no further use for its last-good answer; drop it
  // now (optimistically — a failed close just loses the degraded-mode
  // fallback for a session the client is done with anyway).
  if (resilience_) resilience_->stale().OnClose(ctx.session_id);
  // The close's terminal record releases the pin (see Observe), whether or
  // not the caller ever resolves the future. Record the pin's generation
  // before the shard can see the close: the release only fires if the pin
  // is still that incarnation, so a close that completes after the id was
  // re-created cannot unpin the new session.
  {
    std::lock_guard<std::mutex> pin_lock(pins_->mutex);
    const auto it = pins_->session_shard.find(ctx.session_id);
    if (it != pins_->session_shard.end())
      pins_->closing[ctx.trace_id] = it->second.generation;
  }
  return service.value()->Submit(std::move(request), std::move(ctx));
}

Result<std::future<ServeResponse>> ShardRouter::SubmitCreate(
    const std::string& tenant, std::string session_id, int root_user) {
  return Submit(tenant,
                serve::Request::Create(std::move(session_id), root_user));
}

Result<std::future<ServeResponse>> ShardRouter::SubmitAppend(
    const std::string& tenant, std::string session_id, int user,
    int parent_node, double time) {
  return Submit(tenant, serve::Request::Append(std::move(session_id), user,
                                               parent_node, time));
}

Result<std::future<ServeResponse>> ShardRouter::SubmitPredict(
    const std::string& tenant, std::string session_id) {
  return Submit(tenant, serve::Request::Predict(std::move(session_id)));
}

Result<std::future<ServeResponse>> ShardRouter::SubmitClose(
    const std::string& tenant, std::string session_id) {
  return Submit(tenant, serve::Request::Close(std::move(session_id)));
}

ServeResponse ShardRouter::CallPredict(const std::string& tenant,
                                       std::string session_id) {
  return serve::Wait(SubmitPredict(tenant, std::move(session_id)));
}

ServeResponse ShardRouter::ResolvePredictResilient(
    obs::RequestContext ctx, Result<std::future<ServeResponse>> attempt) {
  const std::shared_ptr<ResilienceControl> rc = resilience_;
  ServeResponse response;
  bool retried = false;
  for (;;) {
    if (attempt.ok()) {
      response = std::move(attempt).value().get();
    } else {
      response = ServeResponse{attempt.status()};
      response.trace_id = ctx.trace_id;
    }
    // Test shim: "cluster.predict_unavailable" turns an injected fraction
    // of successes into retryable failures so tests can drive the retry
    // policy without wedging a shard.
    if (response.status.ok() && fault::ShouldFire(kFaultPredictUnavailable))
      response.status =
          Status::Unavailable("injected cluster.predict_unavailable");
    if (response.status.ok()) {
      rc->stale().StorePrediction(ctx.session_id, response.log_prediction,
                                  response.count_prediction, clock_());
      return response;
    }
    const StatusCode code = response.status.code();
    const bool retryable = code == StatusCode::kUnavailable ||
                           code == StatusCode::kDeadlineExceeded;
    if (retryable && !retried) {
      retried = true;  // single re-dispatch, budget-gated
      double remaining_ms = std::numeric_limits<double>::infinity();
      if (ctx.has_deadline)
        remaining_ms = std::chrono::duration<double, std::milli>(
                           ctx.deadline - std::chrono::steady_clock::now())
                           .count();
      if (remaining_ms < kMinRetryHeadroomMs) {
        // Not enough deadline left to plausibly succeed: denying here beats
        // racing a deadline the retry cannot meet.
        rc->NoteRetryDenied();
      } else if (rc->TryAcquireRetry()) {
        double backoff_ms = rc->RetryBackoffMs(0);
        if (std::isfinite(remaining_ms))
          backoff_ms = std::min(
              backoff_ms, std::max(0.0, remaining_ms - kMinRetryHeadroomMs));
        if (backoff_ms > 0.0)
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(backoff_ms));
        // The context still carries the ORIGINAL absolute deadline, so the
        // re-dispatch runs under the remaining time only; the tenant quota
        // charged at first admission is not charged again.
        Result<std::shared_ptr<PredictionService>> service =
            Route(ctx, /*create=*/false, /*is_retry=*/true);
        if (service.ok()) {
          // The context names the session.
          attempt = service.value()->Submit(serve::Request::Predict({}), ctx);
        } else {
          RecordRejection(ctx, service.status());
          attempt = service.status();
        }
        continue;
      }
    }
    break;
  }

  // Degraded mode: when allowed, answer from the last-good cache instead
  // of erroring — but only for infrastructure failures. A NotFound or
  // InvalidArgument is normally the truth about the request, not an
  // outage. The exception: while some shard is crashed, a NotFound usually
  // IS the outage — the bounded-load walk had pinned the session to the
  // now-dead shard and the ring fell back to a shard that never heard of
  // it — so it may degrade to a stale answer too (the Lookup below only
  // answers for sessions with a recorded last-good).
  const StatusCode code = response.status.code();
  bool stale_eligible = code != StatusCode::kNotFound &&
                        code != StatusCode::kInvalidArgument;
  if (!stale_eligible && code == StatusCode::kNotFound) {
    std::lock_guard<std::mutex> lock(mutex_);
    stale_eligible = !crashed_.empty();
  }
  if (options_.allow_stale && stale_eligible) {
    if (std::optional<StaleAnswer> stale =
            rc->stale().Lookup(ctx.session_id, clock_())) {
      ServeResponse degraded;
      degraded.status = Status::OK();
      degraded.trace_id = ctx.trace_id;
      degraded.log_prediction = stale->log_prediction;
      degraded.count_prediction = stale->count_prediction;
      degraded.stale = true;
      degraded.stale_age_ms = stale->age_ms;
      rc->NoteStaleServe();
      // Not observed: the failed attempts behind this answer already fed
      // the SLI and the breaker, one record each.
      obs::FlightRecord record = obs::FlightRecord::Of(
          ctx, -1, obs::FlightOp::kPredict, StatusCode::kOk);
      record.fault_bits = obs::kFaultBitStale;
      router_flight_.Append(record);
      return degraded;
    }
  }
  return response;
}

Status ShardRouter::WaitRequestsFinished(
    PredictionService& service,
    std::chrono::steady_clock::time_point deadline) const {
  const uint64_t mark = service.accepted();
  while (service.oldest_unfinished() < mark) {
    if (std::chrono::steady_clock::now() >= deadline)
      return Status::DeadlineExceeded(StrFormat(
          "shard requests did not finish in its %lld ms rebalance window",
          static_cast<long long>(kDrainTimeout.count())));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::OK();
}

Status ShardRouter::MoveSessionsLocked(
    int source_id, const std::vector<std::string>& ids, bool all_or_nothing,
    const std::function<int(const std::string&)>& target_of) {
  serve::SessionManager& source = shards_.at(source_id).service->sessions();
  // A session goes back into the source unless the source's table filled
  // up meanwhile with every session in it busy; then it is lost, and the
  // move says so rather than abort the process.
  std::string lost;
  const auto put_back = [&](const std::string& id, const std::string& blob) {
    if (!source.Deserialize(id, blob).ok())
      lost += (lost.empty() ? "'" : ", '") + id + "'";
  };
  const auto lost_status = [&] {
    return Status::Internal(StrFormat(
        "session(s) %s could not go back into shard %d and were lost",
        lost.c_str(), source_id));
  };
  // Extract first. Every request the source held before the drain's mark
  // has finished, so a session is busy only while a later request is inside
  // it; an all-or-nothing move waits briefly for that, and otherwise puts
  // everything back before anything has moved.
  std::vector<std::pair<std::string, std::string>> extracted;
  for (const std::string& id : ids) {
    Result<std::string> blob = source.Extract(id);
    for (int retry = 0; all_or_nothing && !blob.ok() && retry < 100; ++retry) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      blob = source.Extract(id);
    }
    if (blob.ok()) {
      extracted.emplace_back(id, std::move(blob).value());
    } else if (all_or_nothing) {
      for (const auto& [moved, moved_blob] : extracted)
        put_back(moved, moved_blob);
      if (!lost.empty()) return lost_status();
      return Status::Unavailable(
          StrFormat("session '%s' stayed busy on shard %d; nothing moved",
                    id.c_str(), source_id));
    }
  }
  // Import each blob (Deserialize validates it) and re-pin the session. One
  // that fails goes back where it was, so every session is in exactly one
  // shard whatever happens.
  Status status = Status::OK();
  for (const auto& [id, blob] : extracted) {
    const int target = target_of(id);
    const Status st =
        shards_.at(target).service->sessions().Deserialize(id, blob);
    if (st.ok()) {
      SetPin(*pins_, id, target);
      continue;
    }
    put_back(id, blob);
    if (status.ok())
      status = Status::Unavailable(
          StrFormat("import of session '%s' into shard %d failed (%s)",
                    id.c_str(), target, st.message().c_str()));
  }
  return lost.empty() ? status : lost_status();
}

Status ShardRouter::RemoveShard(int shard_id) {
  // Phase 1 (routing lock, brief): mark the shard draining. The rebuilt
  // ring no longer contains it (no new placements or ring routes) and
  // requests pinned to it get a retryable Unavailable, so from here its
  // queue can only shrink.
  std::shared_ptr<PredictionService> source_service;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = shards_.find(shard_id);
    if (it == shards_.end())
      return Status::FailedPrecondition(
          StrFormat("shard %d is not active", shard_id));
    if (draining_.count(shard_id) > 0)
      return Status::FailedPrecondition(
          StrFormat("shard %d is already draining", shard_id));
    if (shards_.size() - draining_.size() <= 1)
      return Status::FailedPrecondition(
          "cannot remove the last routable shard");
    draining_.insert(shard_id);
    RebuildRingLocked();
    source_service = it->second.service;
  }

  // Phase 2 (UNLOCKED): wait until everything queued has finished. Routing
  // for every other shard and tenant proceeds for the whole drain window —
  // a one-shard rebalance must not be a cluster-wide pause.
  const auto deadline = std::chrono::steady_clock::now() + kDrainTimeout;
  Status status = WaitRequestsFinished(*source_service, deadline);

  // Phase 3 (routing lock): move the sessions and destroy the shard.
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = shards_.find(shard_id);
  if (it == shards_.end()) {
    // Crashed while we drained unlocked; nothing left to move.
    draining_.erase(shard_id);
    return Status::Unavailable(
        StrFormat("shard %d went down during its drain", shard_id));
  }
  // Stragglers: a request routed just before the draining mark may have
  // enqueued after the first wait took its mark. With the lock held nothing
  // new can route, so "everything enqueued so far has finished" is "the
  // shard is idle", and this pass (normally a no-op) settles them.
  if (status.ok())
    status = WaitRequestsFinished(*it->second.service, deadline);
  // Every session (live and spilled) moves, or none does when one stays
  // busy. The ring already excludes the draining shard, so every target is
  // a survivor, placed with bounded load.
  if (status.ok()) {
    const auto load_of = [this](int s) {
      std::lock_guard<std::mutex> pin_lock(pins_->mutex);
      const auto found = pins_->shard_load.find(s);
      return found == pins_->shard_load.end() ? uint64_t{0} : found->second;
    };
    status = MoveSessionsLocked(
        shard_id, it->second.service->sessions().SessionIds(),
        /*all_or_nothing=*/true,
        [&](const std::string& id) { return ring_.PickShard(id, load_of); });
  }
  draining_.erase(shard_id);
  if (!status.ok()) {
    RebuildRingLocked();  // the shard keeps serving what stayed on it
    return status;
  }
  it->second.service->Shutdown();
  shards_.erase(it);
  RebuildRingLocked();
  // Sweep stale pins: every moved session was re-pinned, so anything still
  // mapping to the removed shard is stale — an async close whose future was
  // never resolved, or a spill-LRU drop — and would otherwise wedge its
  // session id on a dead shard forever.
  DropPinsInto(*pins_, shard_id);
  return Status::OK();
}

Status ShardRouter::PullSessionsTo(int target_id, int source_id) {
  // Mark the moving sessions under the lock, then wait unlocked.
  std::shared_ptr<PredictionService> source_service;
  std::vector<std::string> moving;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto source = shards_.find(source_id);
    if (source == shards_.end() || draining_.count(source_id) > 0)
      return Status::OK();  // source went away; nothing to pull
    if (shards_.find(target_id) == shards_.end())
      return Status::Unavailable(
          StrFormat("shard %d went down mid-join", target_id));
    source_service = source->second.service;
    for (const std::string& sid : source_service->sessions().SessionIds())
      if (ring_.OwnerOf(sid) == target_id) moving.push_back(sid);
    if (moving.empty()) return Status::OK();
    migrating_.insert(moving.begin(), moving.end());
  }

  // Wait (UNLOCKED) until every request already queued on the source has
  // finished — including any for the now-unroutable moving sessions.
  // A drain-to-empty would never finish while the source's other sessions
  // keep it busy; the watermark wait does. (A request routed before the
  // migrating mark but enqueued during this wait is the one remaining
  // race: it can observe NotFound after the move. The session itself is
  // never at risk — the move skips busy sessions — and the client's retry
  // lands on the new shard.)
  Status status = WaitRequestsFinished(*source_service,
                                       std::chrono::steady_clock::now() +
                                           kDrainTimeout);

  std::lock_guard<std::mutex> lock(mutex_);
  if (shards_.count(target_id) == 0) {
    status = Status::Unavailable(
        StrFormat("shard %d went down mid-join", target_id));
  } else if (status.ok() && shards_.count(source_id) > 0) {
    // A session that is busy or fails to import stays on the source, where
    // its pin still routes it: the join does not fail for it, unless one
    // could not go back and was lost. (A crashed source's sessions died
    // with it.)
    const Status moved = MoveSessionsLocked(
        source_id, moving, /*all_or_nothing=*/false,
        [target_id](const std::string&) { return target_id; });
    if (moved.code() == StatusCode::kInternal) status = moved;
  }
  for (const std::string& sid : moving) migrating_.erase(sid);
  return status;
}

void ShardRouter::CrashShard(int shard_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  CrashShardLocked(shard_id);
}

void ShardRouter::CrashShardLocked(int shard_id) {
  const auto it = shards_.find(shard_id);
  if (it == shards_.end()) return;
  // Preserve the black box before the shard dies with its ring: the last
  // few thousand requests are exactly what a post-mortem needs.
  it->second.service->flight_recorder().TriggerDump("shard_crash");
  router_flight_.TriggerDump("shard_crash");
  // No drain, no session move: exactly what a real crash leaves behind.
  // Shutdown fails everything queued; the session table dies with the
  // service.
  it->second.service->Shutdown();
  shards_.erase(it);
  crashed_.insert(shard_id);
  RebuildRingLocked();
}

Status ShardRouter::RestartShard(int shard_id) {
  std::vector<int> sources;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shards_.find(shard_id) != shards_.end())
      return Status::InvalidArgument(
          StrFormat("shard %d is still active", shard_id));
    // Pins into a crashed shard point at state that died with it; drop
    // them so re-created sessions place by the ring again.
    DropPinsInto(*pins_, shard_id);
    CASCN_ASSIGN_OR_RETURN(std::shared_ptr<PredictionService> service,
                           StartShard(shard_id));
    shards_[shard_id] = Shard{std::move(service)};
    crashed_.erase(shard_id);
    RebuildRingLocked();
    for (const auto& [id, shard] : shards_)
      if (id != shard_id && draining_.count(id) == 0) sources.push_back(id);
  }

  // Pull over the sessions the grown ring assigns to the new shard — the
  // consistent-hash guarantee keeps this to ~1/N of them, all moving TO
  // the new shard. One source shard at a time, and the routing lock is not
  // held while a source's queued requests finish: only the moving sessions
  // pause (retryable Unavailable); everything else keeps serving.
  for (const int source_id : sources)
    CASCN_RETURN_IF_ERROR(PullSessionsTo(shard_id, source_id));
  return Status::OK();
}

Health ShardRouter::HealthLocked(bool burning) const {
  if (shards_.empty()) return Health::kUnhealthy;
  bool degraded = burning || !crashed_.empty();
  for (const auto& [id, shard] : shards_)
    if (shard.service->health() != Health::kHealthy) degraded = true;
  return degraded ? Health::kDegraded : Health::kHealthy;
}

Health ShardRouter::ClusterHealth() const {
  // slo_ has its own leaf mutex: read it before taking the routing lock.
  const bool burning = slo_.AnyTenantBurning(clock_());
  std::lock_guard<std::mutex> lock(mutex_);
  return HealthLocked(burning);
}

ShardRouter::Snapshot ShardRouter::TakeSnapshot() const {
  Snapshot snap;
  const auto now = clock_();
  snap.slo = slo_.Snapshot(now);
  bool burning = false;
  for (const obs::TenantSli& sli : snap.slo) burning |= sli.burning;
  obs::Histogram::Snapshot merged;
  merged.buckets.assign(serve::ServeMetrics::kNumLatencyBuckets, 0);
  double weighted_sum = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<int, uint64_t> shard_load;
    {
      std::lock_guard<std::mutex> pin_lock(pins_->mutex);
      shard_load = pins_->shard_load;
    }
    for (const auto& [id, shard] : shards_) {
      ShardInfo info;
      info.shard_id = id;
      info.active = true;
      info.queue_depth = shard.service->queue_depth();
      info.num_sessions = shard.service->sessions().size();
      const auto load = shard_load.find(id);
      info.pinned_sessions = load == shard_load.end() ? 0 : load->second;
      info.metrics = shard.service->metrics().TakeSnapshot();
      for (int b = 0; b < serve::ServeMetrics::kNumLatencyBuckets; ++b)
        merged.buckets[static_cast<size_t>(b)] +=
            info.metrics.latency_buckets[static_cast<size_t>(b)];
      merged.count += info.metrics.latency_count;
      merged.max = std::max(merged.max, info.metrics.latency_max_us);
      weighted_sum += info.metrics.latency_mean_us *
                      static_cast<double>(info.metrics.latency_count);
      snap.shards.push_back(std::move(info));
    }
    for (int id : crashed_) {
      ShardInfo info;
      info.shard_id = id;
      info.active = false;
      snap.shards.push_back(std::move(info));
    }
    snap.crashed_shards = crashed_.size();
    snap.health = HealthLocked(burning);
  }
  std::sort(snap.shards.begin(), snap.shards.end(),
            [](const ShardInfo& a, const ShardInfo& b) {
              return a.shard_id < b.shard_id;
            });
  if (merged.count > 0) {
    merged.sum = static_cast<uint64_t>(weighted_sum);
    merged.mean = weighted_sum / static_cast<double>(merged.count);
  }
  snap.latency_count = merged.count;
  snap.latency_p50_us = merged.Percentile(0.50);
  snap.latency_p95_us = merged.Percentile(0.95);
  snap.latency_p99_us = merged.Percentile(0.99);
  snap.tenants = admission_.Stats();
  snap.total_shed = admission_.total_shed();
  return snap;
}

std::string ShardRouter::Snapshot::ToString() const {
  std::string out = StrFormat(
      "cluster: health=%s shards=%zu (crashed %llu) shed=%llu "
      "latency n=%llu p50~%.0fus p95~%.0fus p99~%.0fus\n",
      std::string(serve::HealthName(health)).c_str(), shards.size(),
      static_cast<unsigned long long>(crashed_shards),
      static_cast<unsigned long long>(total_shed),
      static_cast<unsigned long long>(latency_count), latency_p50_us,
      latency_p95_us, latency_p99_us);
  for (const ShardInfo& shard : shards) {
    if (!shard.active) {
      out += StrFormat("  shard %d: DOWN\n", shard.shard_id);
      continue;
    }
    out += StrFormat(
        "  shard %d: health=%s sessions=%zu pinned=%llu queue=%zu "
        "requests=%llu p99~%.0fus\n",
        shard.shard_id,
        std::string(serve::HealthName(shard.metrics.health)).c_str(),
        shard.num_sessions,
        static_cast<unsigned long long>(shard.pinned_sessions),
        shard.queue_depth,
        static_cast<unsigned long long>(
            shard.metrics.counter(serve::Counter::kRequestsTotal)),
        shard.metrics.latency_p99_us);
  }
  for (const auto& tenant : tenants)
    out += StrFormat("  tenant '%s': admitted=%llu rejected=%llu\n",
                     tenant.tenant.c_str(),
                     static_cast<unsigned long long>(tenant.admitted),
                     static_cast<unsigned long long>(tenant.rejected));
  for (const auto& sli : slo)
    out += StrFormat(
        "  slo '%s': fast avail=%.4f burn=%.1f | slow avail=%.4f "
        "burn=%.1f%s\n",
        sli.tenant.c_str(), sli.fast_availability, sli.fast_burn,
        sli.slow_availability, sli.slow_burn,
        sli.burning ? " BURNING" : "");
  return out;
}

void ShardRouter::ExportToRegistry(obs::MetricsRegistry& registry) const {
  const Snapshot snap = TakeSnapshot();
  for (const ShardInfo& shard : snap.shards) {
    if (!shard.active) continue;
    serve::ExportToRegistry(shard.metrics, registry,
                            StrFormat("shard=\"%d\"", shard.shard_id));
    registry.GetGauge(StrFormat("cluster_shard_sessions{shard=\"%d\"}",
                                shard.shard_id))
        .Set(static_cast<double>(shard.num_sessions));
  }
  registry.GetGauge("cluster_health")
      .Set(static_cast<double>(static_cast<int>(snap.health)));
  registry.GetGauge("cluster_shards_active")
      .Set(static_cast<double>(snap.shards.size() - snap.crashed_shards));
  registry.GetGauge("cluster_shards_crashed")
      .Set(static_cast<double>(snap.crashed_shards));
  registry.GetGauge("cluster_shed_total")
      .Set(static_cast<double>(snap.total_shed));
  registry.GetGauge("cluster_latency_p50_us").Set(snap.latency_p50_us);
  registry.GetGauge("cluster_latency_p95_us").Set(snap.latency_p95_us);
  registry.GetGauge("cluster_latency_p99_us").Set(snap.latency_p99_us);
  for (const auto& tenant : snap.tenants) {
    // Tenant names are caller-supplied: escape them or a quote in a name
    // corrupts every exposition line it appears on.
    const std::string escaped = obs::EscapeLabelValue(tenant.tenant);
    registry
        .GetGauge(StrFormat("cluster_tenant_admitted{tenant=\"%s\"}",
                            escaped.c_str()))
        .Set(static_cast<double>(tenant.admitted));
    registry
        .GetGauge(StrFormat("cluster_tenant_rejected{tenant=\"%s\"}",
                            escaped.c_str()))
        .Set(static_cast<double>(tenant.rejected));
  }
  slo_.ExportToRegistry(registry, clock_());
  if (resilience_) resilience_->ExportToRegistry(registry);
}

Status ShardRouter::DumpFlightRecorders(std::string_view reason) {
  if (options_.flight_dir.empty())
    return Status::FailedPrecondition(
        "flight-recorder dumps need ShardRouterOptions::flight_dir");
  const auto services = ActiveShards();
  // Each dump set gets a monotonic sequence suffix so concurrent or
  // repeated on-demand dumps never append into each other's files.
  const unsigned long long seq =
      on_demand_dumps_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Dump outside the routing lock: a dump is file I/O and must not stall
  // routing.
  Status status = Status::OK();
  std::vector<std::string> paths;
  for (const auto& [id, service] : services) {
    std::string path = StrFormat("%s/flight_shard_%d.%05llu.jsonl",
                                 options_.flight_dir.c_str(), id, seq);
    Status dump = service->flight_recorder().Dump(path, reason);
    if (!dump.ok() && status.ok()) status = dump;
    paths.push_back(std::move(path));
  }
  std::string router_path = StrFormat(
      "%s/flight_router.%05llu.jsonl", options_.flight_dir.c_str(), seq);
  Status dump = router_flight_.Dump(router_path, reason);
  if (!dump.ok() && status.ok()) status = dump;
  paths.push_back(std::move(router_path));
  // Retention: evict whole sets oldest-first so the dir stays bounded even
  // under a watchdog stall storm.
  std::vector<std::vector<std::string>> evicted;
  {
    std::lock_guard<std::mutex> lock(dump_files_mutex_);
    dump_sets_.push_back(std::move(paths));
    while (dump_sets_.size() > kFlightDumpRetention) {
      evicted.push_back(std::move(dump_sets_.front()));
      dump_sets_.pop_front();
    }
  }
  for (const auto& set : evicted)
    for (const std::string& path : set) std::remove(path.c_str());
  return status;
}

std::vector<std::pair<int, std::shared_ptr<PredictionService>>>
ShardRouter::ActiveShards() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<int, std::shared_ptr<PredictionService>>> services;
  for (const auto& [id, shard] : shards_)
    services.emplace_back(id, shard.service);
  return services;
}

std::shared_ptr<PredictionService> ShardRouter::FindShard(
    int shard_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = shards_.find(shard_id);
  return it == shards_.end() ? nullptr : it->second.service;
}

void ShardRouter::RegisterDebugEndpoints(obs::DebugServer& server) {
  server.AddStatusSection("cluster", [this] {
    return TakeSnapshot().ToString() +
           StrFormat("on_demand_flight_dumps: %llu\n",
                     static_cast<unsigned long long>(on_demand_dump_count()));
  });
  server.AddMetricsExporter(
      [this](obs::MetricsRegistry& registry) { ExportToRegistry(registry); });
  if (resilience_) {
    server.AddStatusSection("resilience", [this] {
      return resilience_->StatusReport(clock_());
    });
  }
  server.AddEndpoint("/flightz", [this](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.content_type = "application/x-ndjson";
    for (const auto& [id, service] : ActiveShards())
      response.body += service->flight_recorder().ToJsonLines(
          StrFormat("flightz_shard_%d", id));
    response.body += router_flight_.ToJsonLines("flightz_router");
    return response;
  });
  server.AddEndpoint("/sloz", [this](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.content_type = "application/json";
    std::string body = "{\"tenants\":[";
    bool first = true;
    for (const obs::TenantSli& sli : slo_.Snapshot(clock_())) {
      if (!first) body += ",";
      first = false;
      body += StrFormat(
          "{\"tenant\":\"%s\",\"fast_total\":%llu,\"fast_good\":%llu,"
          "\"slow_total\":%llu,\"slow_good\":%llu,"
          "\"fast_availability\":%.6f,\"slow_availability\":%.6f,"
          "\"fast_burn\":%.3f,\"slow_burn\":%.3f,\"burning\":%s}",
          JsonEscape(sli.tenant).c_str(),
          static_cast<unsigned long long>(sli.fast_total),
          static_cast<unsigned long long>(sli.fast_good),
          static_cast<unsigned long long>(sli.slow_total),
          static_cast<unsigned long long>(sli.slow_good),
          sli.fast_availability, sli.slow_availability, sli.fast_burn,
          sli.slow_burn, sli.burning ? "true" : "false");
    }
    body += "]}";
    response.body = std::move(body);
    return response;
  });
}

void ShardRouter::RegisterWatchdogTargets(obs::Watchdog& watchdog) {
  for (int id : ShardIds()) {
    obs::WatchTarget target;
    target.name = StrFormat("shard_%d", id);
    target.progress = [this, id]() -> uint64_t {
      const auto service = FindShard(id);
      return service ? service->heartbeat_count() : 0;
    };
    // A crashed/removed shard reads as idle, never stalled.
    target.busy = [this, id] {
      const auto service = FindShard(id);
      return service && service->queue_depth() > 0;
    };
    target.on_stall = [this, id] {
      if (const auto service = FindShard(id)) service->NoteWatchdogStall();
      // Full-cluster context for the post-mortem; failure (no flight_dir)
      // is fine — the shard's own anomaly dump already fired.
      DumpFlightRecorders("watchdog_stall");
    };
    target.on_recover = [this, id] {
      if (const auto service = FindShard(id)) service->NoteWatchdogRecovery();
    };
    watchdog.Watch(std::move(target));
  }
}

int ShardRouter::num_shards() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(shards_.size());
}

std::vector<int> ShardRouter::ShardIds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> ids;
  ids.reserve(shards_.size());
  for (const auto& [id, shard] : shards_) ids.push_back(id);
  return ids;
}

std::vector<int> ShardRouter::CrashedShardIds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<int>(crashed_.begin(), crashed_.end());
}

std::vector<int> ShardRouter::WatchdogWedgedShardIds() const {
  std::vector<int> wedged;
  for (const auto& [id, service] : ActiveShards())
    if (service->watchdog_degraded()) wedged.push_back(id);
  return wedged;
}

void ShardRouter::NoteSupervisorRestart(int shard_id) {
  if (resilience_) {
    // Counts the restart, places the revived shard's breaker in half-open
    // probation (kBreakerProbeRequests clean requests before full ring
    // weight), and writes a "supervisor_restart" anomaly record via the
    // control plane's hook.
    resilience_->NoteSupervisorRestart(shard_id);
  } else {
    router_flight_.TriggerDump("supervisor_restart");
  }
}

int ShardRouter::ShardOf(const std::string& session_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  {
    std::lock_guard<std::mutex> pin_lock(pins_->mutex);
    const auto pin = pins_->session_shard.find(session_id);
    if (pin != pins_->session_shard.end()) return pin->second.shard_id;
  }
  if (ring_.empty()) return -1;
  return ring_.OwnerOf(session_id);
}

PredictionService* ShardRouter::shard(int shard_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = shards_.find(shard_id);
  return it == shards_.end() ? nullptr : it->second.service.get();
}

}  // namespace cascn::cluster

// ShardRouter: the sharded, replicated serving tier.
//
// N in-process PredictionService shards, each with its own worker pool,
// model replicas, session table, and metrics, sit behind one router.
// Session ids are placed by consistent hashing with bounded load
// (cluster/consistent_hash.h): Create() picks the ring owner unless it is
// already carrying more than HashRing::kLoadFactor times the mean session
// count, in which case the walk continues to the next shard. The chosen
// shard is *pinned* for the session's lifetime, so later requests route
// without load information and a session's whole history lives on one
// shard.
//
// Admission control runs before any shard is touched: per-tenant token
// buckets and queue-depth load shedding (cluster/admission.h), both
// rejecting with ResourceExhausted — distinct from a full queue's
// Unavailable and from DeadlineExceeded — so clients can tell "slow down"
// from "retry elsewhere" from "too late". The tenant token is charged
// *after* the routing checks and the load-shed gate: a request that is
// guaranteed to fail (no shards, pinned to a down shard, queue shed) never
// consumes quota, so retries against a degraded cluster do not compound
// the outage.
//
// Requests: one entry point, Submit(tenant, Request). It mints the
// request's obs::RequestContext (trace id, tenant, session id, and the
// deadline resolved to an absolute point), routes, and hands the request to
// the shard's PredictionService::Submit. From the router on, the context is
// the only holder of the session id and the deadline. Three rules depend on
// the op: a create pins its session; with resilience on, a predict gets a
// deferred retry/stale wrapper; a close's future releases the pin.
//
// Pin lifecycle: a pin is created by a create's placement and released when
// the session ends — the future Submit returns for a close releases it when
// the caller resolves a successful close (the bookkeeping is deferred into
// the future, so it works even if the router is gone by then). A session
// whose spilled history is discarded by the shard's bounded spill LRU also
// releases its pin (the shard reports the drop), and RemoveShard sweeps any
// stale pins still pointing at the removed shard — so pins_ cannot grow
// without bound or permanently wedge a session id on a dead shard.
//
// Rebalance (RemoveShard) is two-phase so the cluster never pauses:
// phase 1 (routing lock) marks the shard draining — the ring drops it and
// requests pinned to it get Unavailable (retryable) — then the lock is
// RELEASED while everything already queued on the shard runs to its end;
// phase 2 re-takes the lock, waits the same way once more for requests
// routed just before the mark, then moves every session in memory: Extract
// it as its sealed blob -> Deserialize it into its new owner (which
// validates the blob) -> re-pin it -> destroy the shard. Every shard lives
// in this process, so the blobs need no file: a session that fails to
// import goes back into its source, and the shard then stays.
// RestartShard() is the inverse: a fresh shard joins the ring and pulls
// over the sessions the ring now assigns to it; the sessions being pulled
// are marked migrating (their requests get a retryable Unavailable) while
// the rest of the cluster keeps serving.
//
// Failure model: CrashShard() (and the "cluster.shard_crash" fault point)
// destroys a shard without a drain, as a real crash would. Pinned sessions
// on the crashed shard lose their in-memory history (clients see NotFound
// and re-create); *new* sessions route to the surviving shards because the
// ring no longer contains the crashed one. Cluster health degrades while
// any shard is down or degraded and recovers when the shard rejoins.

#ifndef CASCN_CLUSTER_SHARD_ROUTER_H_
#define CASCN_CLUSTER_SHARD_ROUTER_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/admission.h"
#include "cluster/consistent_hash.h"
#include "cluster/resilience.h"
#include "common/result.h"
#include "obs/debug_server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/request_context.h"
#include "obs/slo.h"
#include "obs/watchdog.h"
#include "serve/metrics.h"
#include "serve/prediction_service.h"

namespace cascn::cluster {

/// Fault-injection points (src/fault):
///  - "cluster.shard_crash": evaluated on every routed request; when it
///    fires, the shard named by the @V payload is crashed (no drain) before
///    the request is routed — chaos runs use nth:K@ID to kill shard ID
///    mid-load.
///  - "cluster.slow_shard.<id>": per-shard predict delay (the @V payload in
///    milliseconds), wired into that shard's service via
///    ServiceOptions::extra_predict_fault_point. Slows one shard without
///    touching the others.
///  - "cluster.predict_unavailable": evaluated on each successful predict
///    response in the resilient path; when it fires the response is
///    replaced with a retryable Unavailable. Lets tests drive the retry
///    policy deterministically without wedging a shard.
inline constexpr char kFaultShardCrash[] = "cluster.shard_crash";
inline constexpr char kFaultSlowShardPrefix[] = "cluster.slow_shard.";
inline constexpr char kFaultPredictUnavailable[] =
    "cluster.predict_unavailable";

/// Fault point name for slowing one specific shard.
std::string SlowShardFaultPoint(int shard_id);

struct ShardRouterOptions {
  /// Initial shard count; shard ids are 0..num_shards-1. >= 1.
  int num_shards = 2;
  /// Per-shard service configuration. `sessions.spill_capacity` defaults to
  /// the session capacity when left 0, so LRU-evicted histories survive to
  /// be handed off (zero session loss includes evicted-but-not-closed
  /// sessions).
  serve::ServiceOptions shard;
  AdmissionOptions admission;
  /// Per-tenant SLO configuration (availability target, burn windows and
  /// thresholds). Sustained burn degrades ClusterHealth.
  obs::SloOptions slo;
  /// Directory for flight-recorder anomaly dumps: each shard appends to
  /// <flight_dir>/flight_shard_<id>.jsonl and the router to
  /// <flight_dir>/flight_router.jsonl. On-demand dump sets
  /// (DumpFlightRecorders) get a monotonic sequence suffix instead:
  /// flight_shard_<id>.<seq>.jsonl. Empty disables dumps (the rings still
  /// record).
  std::string flight_dir;
  /// On-demand dump sets retained on disk; when a new DumpFlightRecorders
  /// set would exceed this, the oldest set's files are deleted. >= 1.
  int flight_dump_retention = 16;
  /// Time source for admission token buckets, SLO windows, breaker windows,
  /// and stale-answer ages. Defaults to steady_clock::now; tests inject a
  /// fake clock to replay hours of traffic deterministically. Request
  /// DEADLINES always use the real steady clock (workers sleep real time),
  /// so a fake clock here never expires in-flight requests.
  std::function<std::chrono::steady_clock::time_point()> clock;
  /// Resilience control plane (circuit breakers, retry budget, stale
  /// cache, supervisor probation). Disabled by default: with
  /// `resilience.enabled == false` every request path costs one extra
  /// pointer load over the non-resilient router.
  ResilienceOptions resilience;
  /// Degraded-mode gate: when true (and resilience is enabled), a predict
  /// that cannot be served — pinned shard open or dead, retry budget spent
  /// or exhausted — returns the session's last-good answer with
  /// ServeResponse::stale set instead of an error.
  bool allow_stale = false;
};

/// Routes session-keyed requests across in-process shards. All methods are
/// thread-safe.
class ShardRouter {
 public:
  /// Builds `num_shards` shards, each loading its replicas from
  /// `checkpoint_path`.
  static Result<std::unique_ptr<ShardRouter>> CreateFromCheckpoint(
      const ShardRouterOptions& options, const std::string& checkpoint_path);

  ~ShardRouter();  // shuts every shard down

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Async submission: routing feasibility first, then admission control
  /// (load shed + tenant quota, both ResourceExhausted — the token is only
  /// charged for requests that could actually run), then routed to the
  /// session's shard. Unavailable when the session is pinned to a crashed
  /// or draining shard or the shard's queue is full. The returned future
  /// always becomes ready. A close's future additionally releases the
  /// session's routing pin when resolved after a successful close, so
  /// callers should resolve (get/wait, or serve::Wait) every close future.
  /// The request's deadline is resolved with the shards'
  /// `default_deadline_ms`.
  Result<std::future<serve::ServeResponse>> Submit(const std::string& tenant,
                                                   serve::Request request);

  // Named forms of Submit, each a one-line forward. They exist only
  // because perfbench/harness/live.cc calls them, and benchmark files change
  // only in a benchmark change; that change moves live.cc onto Submit and
  // deletes these.
  Result<std::future<serve::ServeResponse>> SubmitCreate(
      const std::string& tenant, std::string session_id, int root_user);
  Result<std::future<serve::ServeResponse>> SubmitAppend(
      const std::string& tenant, std::string session_id, int user,
      int parent_node, double time);
  Result<std::future<serve::ServeResponse>> SubmitPredict(
      const std::string& tenant, std::string session_id);
  Result<std::future<serve::ServeResponse>> SubmitClose(
      const std::string& tenant, std::string session_id);
  serve::ServeResponse CallPredict(const std::string& tenant,
                                   std::string session_id);

  /// Live rebalance: drains shard `shard_id` (two-phase — the routing lock
  /// is not held while its queued requests pass, so the rest of the cluster
  /// keeps serving), moves its sessions to the remaining shards (see file
  /// comment), destroys it, and sweeps any stale pins still pointing at it.
  /// FailedPrecondition when it is the last routable shard, unknown, or
  /// already draining; DeadlineExceeded when its queued requests do not
  /// pass in time; Unavailable when a session stays busy or fails to
  /// import. No session is lost: on any error the shard keeps serving, and
  /// every session is in exactly one shard.
  Status RemoveShard(int shard_id);

  /// Crash simulation: destroys the shard with no drain and no session move.
  /// Pinned sessions on it are lost until clients re-create them; the ring
  /// routes new sessions to the survivors. No-op for unknown ids.
  void CrashShard(int shard_id);

  /// The one join: starts a fresh shard with id `shard_id` (loading from
  /// the cluster's checkpoint; a crashed or never-seen id), drops any dead
  /// pins into it so re-created sessions route by the ring again, adds it
  /// to the ring, and pulls over the sessions the ring now assigns to it
  /// from the other shards. InvalidArgument if the id is still active.
  Status RestartShard(int shard_id);

  /// Aggregate condition: kHealthy when every configured shard is up and
  /// healthy; kDegraded when any shard is down, degraded, or was crashed
  /// and not yet restarted; kUnhealthy when no shard is serving.
  serve::Health ClusterHealth() const;

  struct ShardInfo {
    int shard_id = -1;
    bool active = false;
    size_t queue_depth = 0;
    size_t num_sessions = 0;
    uint64_t pinned_sessions = 0;
    serve::ServeMetrics::Snapshot metrics;
  };

  struct Snapshot {
    serve::Health health = serve::Health::kHealthy;
    std::vector<ShardInfo> shards;          // sorted by shard id
    std::vector<AdmissionController::TenantStats> tenants;
    /// Per-tenant rolling SLIs and burn rates at snapshot time.
    std::vector<obs::TenantSli> slo;
    uint64_t total_shed = 0;
    uint64_t crashed_shards = 0;            // crashed and not yet restarted
    /// Accepted-request latency percentiles across every shard (merged
    /// log2 histograms — shed requests never reach a histogram).
    double latency_p50_us = 0.0;
    double latency_p95_us = 0.0;
    double latency_p99_us = 0.0;
    uint64_t latency_count = 0;

    std::string ToString() const;
  };

  Snapshot TakeSnapshot() const;

  /// Exports per-shard serve metrics into `registry` with a shard label
  /// (serve_requests_total{shard="0"}, ...) plus cluster_* gauges for
  /// health, shed totals, and merged latency percentiles, and per-tenant
  /// cluster_tenant_{admitted,rejected}{tenant="..."} gauges.
  void ExportToRegistry(obs::MetricsRegistry& registry) const;

  /// Active shard count / ids.
  int num_shards() const;
  std::vector<int> ShardIds() const;
  /// Shards destroyed by CrashShard and not yet restarted (the supervisor's
  /// work list), sorted.
  std::vector<int> CrashedShardIds() const;
  /// Active shards whose watchdog-stall latch is currently set (wedged but
  /// alive), sorted. Requires RegisterWatchdogTargets-driven latches.
  std::vector<int> WatchdogWedgedShardIds() const;
  /// The shard `session_id` routes to right now (pin, else ring owner);
  /// -1 when the ring is empty.
  int ShardOf(const std::string& session_id) const;
  /// Direct access to one shard's service (tests); null when down.
  serve::PredictionService* shard(int shard_id);

  const AdmissionController& admission() const { return admission_; }
  const std::string& checkpoint_path() const { return checkpoint_path_; }
  /// The resilience control plane; null when ShardRouterOptions::resilience
  /// is disabled.
  ResilienceControl* resilience() const { return resilience_.get(); }
  /// Supervisor callback after a successful auto-restart: counts it, puts
  /// the shard's breaker into half-open probation, and writes a
  /// "supervisor_restart" anomaly dump set.
  void NoteSupervisorRestart(int shard_id);
  /// Per-tenant SLI/burn-rate tracker (time-injected; see
  /// ShardRouterOptions::clock).
  const obs::SloTracker& slo() const { return slo_; }
  /// Router-level flight recorder: requests rejected before reaching a
  /// shard (unroutable, shed, over quota) as op=Route, shard=-1.
  const obs::FlightRecorder& router_flight_recorder() const {
    return router_flight_;
  }

  /// On-demand black-box dump: writes every shard's flight-recorder ring
  /// (and the router's) to a fresh sequence-suffixed file set
  /// (flight_shard_<id>.<NNNNN>.jsonl / flight_router.<NNNNN>.jsonl) in
  /// flight_dir, tagged `reason` — successive dumps never collide. At most
  /// ShardRouterOptions::flight_dump_retention sets are kept; older sets
  /// are deleted. FailedPrecondition when flight_dir is unset.
  Status DumpFlightRecorders(std::string_view reason);

  /// DumpFlightRecorders calls so far (the sequence number of the newest
  /// dump set). Shown in /statusz.
  uint64_t on_demand_dump_count() const {
    return on_demand_dumps_.load(std::memory_order_relaxed);
  }

  /// Registers the cluster's introspection surface on `server`: a
  /// "cluster" /statusz section (health + per-shard summary + dump
  /// counter), /flightz (every shard ring + the router ring as JSON
  /// lines), /sloz (per-tenant burn rates), and a /metricsz exporter.
  /// Handlers capture `this`: Stop() the server before destroying the
  /// router.
  void RegisterDebugEndpoints(obs::DebugServer& server);

  /// Registers one watchdog target per currently-active shard: progress is
  /// the shard's worker heartbeat, busy its queue depth. On stall the
  /// shard's health degrades, its ring dumps, and a full on-demand dump
  /// set (reason "watchdog_stall") is written; on recovery health is
  /// restored. Targets capture `this` and resolve the shard on every
  /// sample, so they survive crash/rebalance of the shard (a missing shard
  /// reads as idle). Stop the watchdog before destroying the router.
  void RegisterWatchdogTargets(obs::Watchdog& watchdog);

 private:
  struct Shard {
    std::shared_ptr<serve::PredictionService> service;
  };

  /// Session-pin bookkeeping. Held in a shared_ptr because deferred close
  /// futures and per-shard spill-drop callbacks release pins through it and
  /// may outlive the router. `mutex` is a LEAF lock: nothing else may be
  /// acquired while holding it (the spill-drop callback runs under a
  /// SessionManager's table lock, so the inverse order must stay out of the
  /// lock graph).
  struct PinState {
    struct Pin {
      int shard_id = -1;
      /// Bumped whenever the pin is (re)placed; a deferred close release
      /// only fires if the generation it captured is still current, so a
      /// close resolved after the id was re-created cannot unpin the new
      /// session.
      uint64_t generation = 0;
    };
    std::mutex mutex;
    std::unordered_map<std::string, Pin> session_shard;
    std::unordered_map<int, uint64_t> shard_load;  // pinned sessions/shard
    uint64_t next_generation = 0;
  };

  explicit ShardRouter(const ShardRouterOptions& options,
                       std::string checkpoint_path);

  /// Points `session_id`'s pin at `shard_id` (new generation), fixing both
  /// shards' load counts. Takes pins.mutex.
  static void SetPin(PinState& pins, const std::string& session_id,
                     int shard_id);
  /// Drops `session_id`'s pin if its generation is still `generation`,
  /// fixing the shard load. Takes pins.mutex.
  static void ReleasePinIfCurrent(PinState& pins,
                                  const std::string& session_id,
                                  uint64_t generation);
  /// Drops every pin into `shard_id` and its load count. Takes
  /// pins.mutex.
  static void DropPinsInto(PinState& pins, int shard_id);

  /// Builds one shard's service options (shard-scoped slow fault point,
  /// spill default).
  serve::ServiceOptions ShardServiceOptions(int shard_id) const;
  /// Starts one shard's service. Pre: mutex_ held (startup excepted).
  Result<std::shared_ptr<serve::PredictionService>> StartShard(int shard_id);

  /// Admission + routing: resolves the target service for ctx.session_id,
  /// creating a pin when `create` is true. Applies the shard-crash fault,
  /// the circuit breaker (resilience on), tenant quota, and load shedding.
  /// A retry re-dispatch (`is_retry`) skips the tenant-quota charge — the
  /// original admission already paid for this request — but still honors
  /// the breaker and the load-shed gate.
  Result<std::shared_ptr<serve::PredictionService>> Route(
      const obs::RequestContext& ctx, bool create, bool is_retry = false);

  /// Submit's first routing of a request: opens the cluster_route span,
  /// feeds the retry budget, routes, and books a rejection.
  Result<std::shared_ptr<serve::PredictionService>> RouteRequest(
      const obs::RequestContext& ctx, bool create);

  /// Body of the deferred future Submit returns for a predict when
  /// resilience is enabled: awaits the first dispatch `attempt`,
  /// re-dispatches once under the retry budget with the remaining deadline,
  /// and falls back to the stale cache when allowed. Runs on the caller's
  /// resolving thread.
  serve::ServeResponse ResolvePredictResilient(
      obs::RequestContext ctx,
      Result<std::future<serve::ServeResponse>> attempt);

  /// Feeds one outcome record to the router's sinks: the SLI of `ctx`'s
  /// tenant (full name; the record truncates it) and, for a shard's record,
  /// that shard's circuit breaker.
  void Observe(const obs::RequestContext& ctx,
               const obs::FlightRecord& record) const;

  /// Books a request rejected before reaching any shard: router record
  /// (op=Route), observed like a shard's, and a "load_shed" anomaly dump
  /// when the rejection was admission control (ResourceExhausted).
  void RecordRejection(const obs::RequestContext& ctx, const Status& status);

  /// Crash internals shared by CrashShard and the fault hook. Pre: mutex_.
  void CrashShardLocked(int shard_id);

  /// The cluster health rule: no shard serving is unhealthy; a `burning`
  /// tenant (both SLO windows over budget: an outage in progress), a crashed
  /// shard or any shard not healthy degrades. Pre: mutex_.
  serve::Health HealthLocked(bool burning) const;

  /// Rebuilds the ring from the active, non-draining shards. Pre: mutex_.
  void RebuildRingLocked();

  /// Waits (bounded by `deadline`) until every request enqueued to
  /// `service` before this call has finished: not only left the queue, but
  /// run to its response, so none of them is still on its way to a
  /// session. It makes progress while other sessions keep the shard busy,
  /// so it is safe to call without blocking routing. Called again with
  /// mutex_ held on a draining shard, where nothing new can route, it waits
  /// for the shard to go idle.
  Status WaitRequestsFinished(
      serve::PredictionService& service,
      std::chrono::steady_clock::time_point deadline) const;

  /// RestartShard's per-source pull: marks the sessions the ring now
  /// assigns to `target_id` as migrating, waits (unlocked) for their queued
  /// requests to finish, then moves them under the routing lock. Busy
  /// sessions, and any that fail to import, stay on the source.
  Status PullSessionsTo(int target_id, int source_id);

  /// The one move path. Extracts each of `ids` from shard `source_id` as
  /// its sealed blob, imports it into shard `target_of(id)` and pins it
  /// there; a session that fails to import goes back into the source.
  /// A busy session is skipped, or with `all_or_nothing` retried briefly
  /// and, if it stays busy, every extracted session goes back and nothing
  /// moves. Returns the first failure (Unavailable), or Internal naming any
  /// session that could not go back (its source table filled up meanwhile
  /// with every session busy) and is lost. Pre: mutex_ held.
  Status MoveSessionsLocked(int source_id, const std::vector<std::string>& ids,
                            bool all_or_nothing,
                            const std::function<int(const std::string&)>&
                                target_of);

  /// (id, service) of every active shard, copied under mutex_ so callers
  /// can do I/O on them without holding the routing lock.
  std::vector<std::pair<int, std::shared_ptr<serve::PredictionService>>>
  ActiveShards() const;

  /// Resolves a shard's service under mutex_; null when crashed/removed.
  /// Watchdog and debug-endpoint callbacks use this on every invocation so
  /// they never hold a service pointer across a crash or rebalance.
  std::shared_ptr<serve::PredictionService> FindShard(int shard_id) const;

  ShardRouterOptions options_;
  std::string checkpoint_path_;
  AdmissionController admission_;
  /// Injected time source (see ShardRouterOptions::clock); read by routing
  /// admission, SLI samples, and shard on_complete callbacks.
  std::function<std::chrono::steady_clock::time_point()> clock_;
  /// Declared before shards_ so worker on_complete callbacks (which record
  /// SLI samples during a shard's Shutdown drain) never outlive it.
  /// mutable: recording a sample is observability, not router state.
  mutable obs::SloTracker slo_;
  /// Router-level black box for requests that never reached a shard.
  mutable obs::FlightRecorder router_flight_;
  /// DumpFlightRecorders sequence (1-based suffix of the newest dump set).
  mutable std::atomic<uint64_t> on_demand_dumps_{0};
  /// Guards dump_sets_ (retention bookkeeping for on-demand dump files).
  /// LEAF lock: taken after the dump files are written, nothing nested.
  mutable std::mutex dump_files_mutex_;
  /// Paths of each retained on-demand dump set, oldest first.
  std::deque<std::vector<std::string>> dump_sets_;
  /// Clock second of the last "load_shed" anomaly dump — sustained shedding
  /// is throttled to one ring dump per second (see RecordRejection).
  mutable std::atomic<int64_t> last_shed_dump_second_{
      std::numeric_limits<int64_t>::min()};

  /// Resilience control plane; null when options_.resilience.enabled is
  /// false (the single pointer load every request path pays). shared_ptr:
  /// deferred predict wrappers keep it alive past the router if a caller
  /// resolves them late. Declared before shards_ so shard on_complete
  /// callbacks (breaker feeds) never outlive it.
  std::shared_ptr<ResilienceControl> resilience_;

  /// Guards shards_, ring_, crashed_, draining_, migrating_. Held only for
  /// routing bookkeeping and topology changes — never across a model
  /// forward pass (requests run on shard worker threads) and never while a
  /// queue drains (rebalance waits run unlocked).
  mutable std::mutex mutex_;
  std::map<int, Shard> shards_;
  HashRing ring_;
  /// Ring over active AND crashed shards. Routing a non-create request for
  /// an unpinned session consults this first: when the full-membership
  /// owner is a crashed shard, the session (if it ever existed) died with
  /// it, and the right answer is a retryable Unavailable — not the NotFound
  /// a surviving shard would return, which would make clients give the
  /// session up for dead during a blip a restart will heal.
  HashRing all_ring_;
  /// Pin table (own leaf mutex; see PinState). Acquire order: mutex_ then
  /// pins_->mutex, or pins_->mutex alone.
  std::shared_ptr<PinState> pins_ = std::make_shared<PinState>();
  /// Shards destroyed by CrashShard and not yet restarted (health signal).
  std::set<int> crashed_;
  /// Shards mid-RemoveShard: out of the ring, pinned requests rejected.
  std::set<int> draining_;
  /// Sessions mid-RestartShard pull: their requests get a retryable
  /// Unavailable until the move completes.
  std::unordered_set<std::string> migrating_;
};

}  // namespace cascn::cluster

#endif  // CASCN_CLUSTER_SHARD_ROUTER_H_

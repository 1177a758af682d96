// PredictionService: the multi-threaded front end of the serving subsystem.
//
// Requests (create / append / predict / close) are one value type,
// `Request`, with one entry point, Submit(Request, RequestContext). They
// enter a bounded FIFO queue and are drained by worker threads drawn from a
// ThreadPool. Submit is where a request enters the system: from there on its
// session id and deadline live only in its obs::RequestContext. Wait()
// turns a submission into its response, for callers that block. The
// service loads one CascnModel from its checkpoint and every worker runs
// its forwards on it: a forward only reads the trained parameters
// (CascnModel::SupportsConcurrentForward). Session state is shared through
// the SessionManager's per-session locks.
//
// Micro-batching: a worker drains up to `max_batch` queued requests in one
// critical section and processes them together; a repeated predict for an
// unchanged session is a hit on the session's cached prediction, inside a
// batch or across batches. Backpressure: when the queue is full, submission
// fails fast with Unavailable instead of blocking unboundedly.
//
// Self-healing:
//  - Deadlines: a request carrying a deadline that expires before a worker
//    reaches it fails fast with DeadlineExceeded instead of occupying the
//    worker (the "serve.slow_predict" fault point exercises this).
//  - Health: metrics().health() reports kHealthy / kDegraded (a watchdog
//    stall) / kUnhealthy (shut down).
//
// Shutdown() stops intake, lets workers finish the batches they hold, fails
// every still-queued request with a status naming the shutdown, and joins
// the workers. It is idempotent and safe to call concurrently; the
// destructor implies it.

#ifndef CASCN_SERVE_PREDICTION_SERVICE_H_
#define CASCN_SERVE_PREDICTION_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/cascn_model.h"
#include "parallel/thread_pool.h"
#include "obs/debug_server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/request_context.h"
#include "obs/watchdog.h"
#include "serve/metrics.h"
#include "serve/session_manager.h"

namespace cascn::serve {

struct ServiceOptions {
  /// Worker threads; >= 1.
  int num_workers = 4;
  /// Bounded request queue; submissions beyond this fail with Unavailable.
  size_t queue_capacity = 4096;
  /// Max requests one worker drains per critical section; >= 1.
  int max_batch = 16;
  /// Deadline applied to requests submitted without one (Request's
  /// `deadline_ms` 0), in milliseconds, where the request's context is
  /// minted: by Submit without a context, or by the cluster router; 0
  /// disables. A request whose deadline passes before a worker reaches it
  /// fails with DeadlineExceeded.
  double default_deadline_ms = 0.0;
  /// Additional fault-injection point checked (as a MaybeDelay) on every
  /// predict, besides the global "serve.slow_predict". The cluster layer
  /// sets this to a shard-scoped name ("cluster.slow_shard.<id>") so chaos
  /// runs can slow one shard without touching the others.
  std::string extra_predict_fault_point;
  /// Stamped into every flight-recorder record; -1 = unsharded service.
  int shard_id = -1;
  /// File the flight recorder appends anomaly dumps to (deadline exceeded,
  /// watchdog stall); empty disables anomaly dumps (the ring still runs).
  std::string flight_dump_path;
  /// Invoked once per terminal request outcome — worker completion, enqueue
  /// rejection, or shutdown drain — with the request's context and the
  /// flight record the service just appended to its ring: status, fault
  /// bits, queue wait and execution time in ns (both 0 for a request that
  /// never ran). The context carries the full tenant name, which the record
  /// truncates. The cluster layer feeds per-tenant SLIs and the shard's
  /// circuit breaker from this. May be called from worker threads and from
  /// Shutdown(); must not call back into the service and must outlive it.
  std::function<void(const obs::RequestContext&, const obs::FlightRecord&)>
      on_complete;
  SessionManagerOptions sessions;
};

/// Fault-injection point (src/fault): delays predict execution by the
/// armed @ms payload, forcing deadline misses under test.
inline constexpr char kFaultServeSlowPredict[] = "serve.slow_predict";

/// One serving request as a caller submits it. `user` is the root user of a
/// create and the adopting user of an append; `parent_node` and `time` are
/// read by appends only. `session_id` and `deadline_ms` are the caller's:
/// the edge moves the id into the request's RequestContext and resolves
/// the budget there (obs::RequestContext::ResolveDeadline: > 0 explicit
/// ms, 0 ServiceOptions::default_deadline_ms, < 0 none).
struct Request {
  enum class Op { kCreate, kAppend, kPredict, kClose };

  Op op = Op::kPredict;
  std::string session_id;
  int user = 0;
  int parent_node = 0;
  double time = 0.0;
  double deadline_ms = 0.0;

  static Request Create(std::string session_id, int root_user) {
    return {.op = Op::kCreate, .session_id = std::move(session_id),
            .user = root_user};
  }
  static Request Append(std::string session_id, int user, int parent_node,
                        double time) {
    return {.op = Op::kAppend, .session_id = std::move(session_id),
            .user = user, .parent_node = parent_node, .time = time};
  }
  static Request Predict(std::string session_id, double deadline_ms = 0.0) {
    return {.op = Op::kPredict, .session_id = std::move(session_id),
            .deadline_ms = deadline_ms};
  }
  static Request Close(std::string session_id) {
    return {.op = Op::kClose, .session_id = std::move(session_id)};
  }
};

/// Outcome of one request. `log_prediction`/`count_prediction` are set only
/// for successful predict requests.
struct ServeResponse {
  Status status;
  double log_prediction = 0.0;
  double count_prediction = 0.0;
  /// Trace id of the request's context; correlates the response with spans
  /// in the Chrome trace and with flight-recorder records. Set on every
  /// response a future yields. A submission rejected before it was queued
  /// (routing, admission, a full queue, shutdown) has no response: Submit
  /// returns the Status, and Wait() turns it into a response with
  /// trace_id 0. That request's id is still in the flight record of the
  /// layer that rejected it: the router's ring (op=Route) for routing and
  /// admission, the shard's ring for a full queue or shutdown.
  uint64_t trace_id = 0;
  /// Degraded-mode marker: true when the answer came from the router's
  /// last-good prediction cache instead of a live shard (the pinned shard
  /// was down and ShardRouterOptions::allow_stale let the router serve anyway).
  /// `stale_age_ms` is how old the cached answer was when served. A stale
  /// response always carries status OK — staleness is a quality signal, not
  /// an error.
  bool stale = false;
  double stale_age_ms = 0.0;
};

/// Multi-threaded, in-process cascade prediction service.
class PredictionService {
 public:
  /// Loads the CasCN model from `checkpoint_path` once and starts the
  /// workers, which share it. A failed load is returned as is.
  static Result<std::unique_ptr<PredictionService>> CreateFromCheckpoint(
      const ServiceOptions& options, const std::string& checkpoint_path);

  ~PredictionService();  // implies Shutdown()

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Async submission. The future always becomes ready (also during
  /// shutdown drain). Fails fast with Unavailable when the queue is full or
  /// the service is shutting down.
  ///
  /// With no `ctx`, the service mints the request's context: a fresh trace
  /// id, the request's session id, and its deadline resolved from
  /// `request.deadline_ms`. A caller-minted `ctx` (the cluster router's) is
  /// traced, flight-recorded and SLI-attributed as given: its deadline is
  /// used as is, and the session id it names, when it names one, wins over
  /// the request's.
  Result<std::future<ServeResponse>> Submit(Request request,
                                            obs::RequestContext ctx = {});

  /// Current service condition (also in metrics().TakeSnapshot()).
  Health health() const { return metrics_.health(); }

  /// Stops intake, fails still-queued requests with a status naming the
  /// shutdown, joins workers, sets health to kUnhealthy. Idempotent and
  /// safe to call concurrently.
  void Shutdown();

  const ServeMetrics& metrics() const { return metrics_; }
  /// Always-on black box of recent request records; dumps on anomaly
  /// triggers when ServiceOptions::flight_dump_path is set, and on demand.
  const obs::FlightRecorder& flight_recorder() const { return flight_; }
  obs::FlightRecorder& flight_recorder() { return flight_; }
  /// Service-local observability registry: `serve_queue_depth` gauge and
  /// `serve_batch_size` histogram, maintained live by the workers. Bridge
  /// the ServeMetrics snapshot in with serve::ExportToRegistry() for one
  /// unified exposition.
  const obs::MetricsRegistry& registry() const { return registry_; }
  obs::MetricsRegistry& registry() { return registry_; }
  SessionManager& sessions() { return *sessions_; }
  int num_workers() const { return options_.num_workers; }
  /// Requests currently queued (admission control reads this to shed load
  /// before a shard's queue collapses).
  size_t queue_depth() const;
  /// Requests accepted into the queue so far. Each accepted request is
  /// numbered in order from 0, so this is the next one's number.
  uint64_t accepted() const;
  /// The number of the oldest accepted request that has not finished (its
  /// Finish has not returned), or accepted() when none is left. A request a
  /// worker has taken off the queue is unfinished until its response is
  /// set, so "oldest_unfinished() >= mark" means every request numbered
  /// below `mark` has left its session. (Requests that Shutdown fails from
  /// the queue count as finished once they leave it: they never run.)
  /// Workers finish requests out of order, so a count of finished ones
  /// could not say this.
  uint64_t oldest_unfinished() const;
  size_t queue_capacity() const { return options_.queue_capacity; }

  /// Liveness stamp: workers bump it once per completed request, so the
  /// count moving is proof the drain loop is making progress. Watchdogs
  /// sample it via MakeWatchdogTarget().
  uint64_t heartbeat_count() const { return heartbeat_.count(); }

  /// Builds a watchdog target for this service: progress is the worker
  /// heartbeat, busy means requests are queued. On stall the service's
  /// health drops to kDegraded and its flight recorder dumps (reason
  /// "watchdog_stall"); on recovery, health returns to kHealthy. The target
  /// captures `this`: stop the watchdog before destroying the service.
  obs::WatchTarget MakeWatchdogTarget(std::string name);

  /// Watchdog health latch, exposed for callers (the shard router) that
  /// build their own WatchTarget around this service: a stall moves a
  /// healthy service to kDegraded and dumps the flight ring; a recovery
  /// moves a degraded one back to kHealthy. A shut-down service stays
  /// kUnhealthy.
  void NoteWatchdogStall();
  void NoteWatchdogRecovery();
  /// True while a watchdog stall holds health degraded, the only thing
  /// that can. The shard supervisor polls this to spot wedged-but-alive
  /// shards.
  bool watchdog_degraded() const {
    return metrics_.health() == Health::kDegraded;
  }

  /// Registers this service's introspection surface on `server`: a "serve"
  /// /statusz section, /flightz (the flight ring as JSON lines), and a
  /// /metricsz exporter bridging ServeMetrics plus the service-local
  /// registry. Handlers capture `this`: Stop() the server before
  /// destroying the service.
  void RegisterDebugEndpoints(obs::DebugServer& server);

 private:
  using Clock = std::chrono::steady_clock;

  /// A request on the queue: the op's payload plus its context, which holds
  /// the session id and the deadline.
  struct Queued {
    Request::Op op = Request::Op::kPredict;
    int user = 0;
    int parent_node = 0;
    double time = 0.0;
    obs::RequestContext ctx;
    Clock::time_point enqueue_time;
    std::promise<ServeResponse> promise;
    /// Its place in the order of accepted requests (see accepted()).
    uint64_t number = 0;
  };

  /// How a request left the service: run by a worker, turned away at the
  /// queue, or failed by Shutdown while still queued.
  enum class End { kRan, kRejected, kDrained };

  PredictionService(const ServiceOptions& options,
                    std::unique_ptr<CascnModel> model);

  /// `fault_bits` accumulates FlightFault bits for the fault points that
  /// fired while executing this request.
  ServeResponse Execute(const Queued& request, uint16_t& fault_bits);
  void WorkerLoop(int worker_index);
  /// The one end of every request. Builds its flight record (a request that
  /// ran started at `start` and ends now; it waited from its enqueue to
  /// `start`, behind its micro-batch's earlier members too), updates
  /// ServeMetrics from it, appends it to the ring, reports it through
  /// ServiceOptions::on_complete, then stamps the response's trace id and
  /// fulfils the promise.
  void Finish(Queued& request, ServeResponse response, End end,
              Clock::time_point start = {}, uint16_t fault_bits = 0);

  ServiceOptions options_;
  ServeMetrics metrics_;
  obs::WorkerHeartbeat heartbeat_;
  obs::FlightRecorder flight_;
  obs::MetricsRegistry registry_;
  obs::Gauge& queue_depth_;        // owned by registry_
  obs::Histogram& batch_size_;     // owned by registry_
  std::unique_ptr<SessionManager> sessions_;
  /// The one model every worker forwards on; fixed from construction on.
  const std::unique_ptr<CascnModel> model_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Queued> queue_;
  bool shutting_down_ = false;
  /// Requests accepted so far. Guarded by queue_mutex_.
  uint64_t accepted_ = 0;
  /// Per worker: the number of the oldest unfinished request of the batch
  /// it runs, or kNoBatch. Set under queue_mutex_ when the worker takes a
  /// batch, so a request is always on the queue or covered here; advanced
  /// after each of the batch's requests finishes.
  static constexpr uint64_t kNoBatch = ~uint64_t{0};
  std::vector<std::atomic<uint64_t>> unfinished_from_;

  // Shutdown idempotency: first caller runs the drain; concurrent callers
  // block until it completes.
  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_started_ = false;
  bool shutdown_done_ = false;

  // Declared last so workers (which reference everything above) stop before
  // any other member is destroyed.
  std::unique_ptr<parallel::ThreadPool> pool_;
};

/// Blocks on a submission. A rejected submission becomes a response that
/// carries the rejection status (see ServeResponse::trace_id).
ServeResponse Wait(Result<std::future<ServeResponse>> submitted);

}  // namespace cascn::serve

#endif  // CASCN_SERVE_PREDICTION_SERVICE_H_

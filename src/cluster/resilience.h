// Resilience control plane for the sharded serving tier: the *reaction*
// half of the detect->react loop whose detection half (fault points, health
// states, watchdog latches, SLO burn, flight recorder) earlier PRs built.
//
// Three policies, all deterministic under an injected clock and the fault
// registry's seed so chaos tests can assert exact schedules:
//
//  - CircuitBreaker (per shard): closed -> open when the rolling error/
//    timeout rate over a clock-injected window trips the threshold ->
//    half-open probe after a cooldown -> closed after N clean requests.
//    Consulted at routing time, so an open shard is skipped by the
//    bounded-load ring walk instead of timing out every request.
//
//  - RetryBudget (global): a token bucket fed by observed traffic (~10% by
//    default) that governs the single re-dispatch of idempotent Predict
//    calls on Unavailable/DeadlineExceeded. Re-dispatch always carries the
//    REMAINING deadline (never the original) and backs off exponentially
//    with jitter drawn from the fault-seed RNG.
//
//  - StaleCache: a small LRU of each session's last-good prediction. When a
//    pinned shard is open/dead and the retry budget is spent, the router can
//    answer with a clearly-marked stale response (ServeResponse::stale, age
//    recorded) instead of an error — gated by
//    ShardRouterOptions::allow_stale. Closing a session forgets its answer.
//
// ShardSupervisor closes the loop for hard failures: a thread that watches
// the router's crashed-shard set and watchdog latches and auto-restarts
// dead or wedged shards on a capped exponential backoff schedule, placing
// each revived shard's breaker into a half-open probation window (N clean
// requests before full ring weight returns).

#ifndef CASCN_CLUSTER_RESILIENCE_H_
#define CASCN_CLUSTER_RESILIENCE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "obs/metrics_registry.h"

namespace cascn::cluster {

class ShardRouter;

/// Minimum deadline remainder worth re-dispatching for: a retry whose
/// remaining budget is below this floor is rejected immediately (counted as
/// denied) instead of racing a deadline it cannot meet.
inline constexpr double kMinRetryHeadroomMs = 2.0;

/// The breaker's status rule: only an infrastructure failure (the shard
/// could not serve) counts against a shard. NotFound, InvalidArgument and
/// other application outcomes are the shard serving a request.
inline bool IsShardFailure(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kInternal || code == StatusCode::kIoError;
}

/// Circuit-breaker state machine position.
enum class BreakerState : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

std::string_view BreakerStateName(BreakerState state);

struct BreakerOptions {
  /// Rolling window (seconds of the injected clock) the error rate is
  /// computed over.
  double window_seconds = 10.0;
  /// Minimum requests in the window before the breaker may trip: a single
  /// failure on an idle shard is not an outage.
  int min_requests = 8;
  /// Failure fraction (errors+timeouts / total) at or above which a closed
  /// breaker opens.
  double failure_rate_threshold = 0.5;
  /// Cooldown an open breaker holds before allowing a half-open probe.
  double open_seconds = 2.0;
  /// Clean requests required in half-open before the breaker re-closes; any
  /// failure during probation reopens immediately.
  int probe_requests = 4;
};

/// Per-shard circuit breaker. Thread-safe; time is always passed in, so the
/// state machine replays identically under a test clock.
class CircuitBreaker {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;
  /// `on_transition(from, to)` fires on every state change, outside the
  /// breaker's lock (so it may take leaf locks, e.g. a flight-dump mutex).
  using TransitionHook = std::function<void(BreakerState, BreakerState)>;

  explicit CircuitBreaker(const BreakerOptions& options,
                          TransitionHook on_transition = nullptr);

  /// Routing-time gate. Closed and half-open admit (half-open IS the probe
  /// traffic); open admits nothing until the cooldown elapses, at which
  /// point the breaker flips to half-open and admits.
  bool AllowRequest(TimePoint now);

  /// Terminal-outcome feeds (from the shard's on_complete hook).
  void RecordSuccess(TimePoint now);
  void RecordFailure(TimePoint now);

  /// Supervisor entry point: a just-restarted shard starts in half-open
  /// probation regardless of prior state. `probe_requests` <= 0 uses the
  /// configured default.
  void BeginProbation(TimePoint now, int probe_requests = 0);

  BreakerState state() const;
  /// Failure fraction over the current window (0 when below min_requests).
  double FailureRate(TimePoint now) const;

 private:
  struct Bucket {
    int64_t second = 0;
    uint64_t ok = 0;
    uint64_t failed = 0;
  };

  /// Drops window buckets older than window_seconds. Pre: mutex_ held.
  void AdvanceLocked(TimePoint now);
  /// Pre: mutex_ held. Returns the transition to report (or {same,same}).
  std::pair<BreakerState, BreakerState> TransitionLocked(BreakerState next);
  double FailureRateLocked() const;

  const BreakerOptions options_;
  const TransitionHook on_transition_;
  mutable std::mutex mutex_;
  BreakerState state_ = BreakerState::kClosed;
  std::deque<Bucket> window_;
  TimePoint open_until_{};
  int probe_needed_ = 0;
  int probe_successes_ = 0;
};

struct RetryBudgetOptions {
  /// Tokens earned per observed request: the steady-state retry fraction.
  double ratio = 0.1;
  /// Bucket capacity (also the initial balance): the largest retry burst.
  double cap = 32.0;
};

/// Global retry budget: a traffic-fed token bucket. No clock — the budget
/// refills from request volume, so it needs no time source to stay
/// deterministic.
class RetryBudget {
 public:
  explicit RetryBudget(const RetryBudgetOptions& options);

  /// Feeds the bucket from one observed request; never exceeds the cap.
  void OnRequest();
  /// Spends one token; false (nothing spent) when the bucket is dry.
  bool TryAcquire();
  double tokens() const;

 private:
  const RetryBudgetOptions options_;
  mutable std::mutex mutex_;
  double tokens_;
};

struct StaleCacheOptions {
  /// Sessions whose last-good prediction is kept, LRU-evicted.
  size_t capacity = 1024;
  /// Oldest answer the stale path may serve; <= 0 serves any age.
  double max_age_ms = 0.0;
};

/// A cached last-good answer, age-stamped at lookup.
struct StaleAnswer {
  double log_prediction = 0.0;
  double count_prediction = 0.0;
  double age_ms = 0.0;
};

/// Bounded LRU of each session's last successful prediction. Thread-safe.
class StaleCache {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit StaleCache(const StaleCacheOptions& options);

  /// Records the session's latest successful prediction, stamped `now`.
  void StorePrediction(const std::string& session_id, double log_prediction,
                       double count_prediction, TimePoint now);

  /// Last-good answer for the session, age-stamped against `now`; nullopt
  /// when none is stored or it exceeds max_age_ms.
  std::optional<StaleAnswer> Lookup(const std::string& session_id,
                                    TimePoint now);

  /// Forgets the session's answer (the client closed it).
  void OnClose(const std::string& session_id);

  size_t size() const;

 private:
  struct Entry {
    double log_prediction = 0.0;
    double count_prediction = 0.0;
    TimePoint stored_at{};
    std::list<std::string>::iterator lru_it;
  };

  const StaleCacheOptions options_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
};

/// Everything the router's resilient request paths consult, in one place.
struct ResilienceOptions {
  /// Master gate. When false the router never constructs a
  /// ResilienceControl and every request path costs exactly one pointer
  /// load over the PR 6 behavior.
  bool enabled = false;
  BreakerOptions breaker;
  RetryBudgetOptions retry_budget;
  /// First-retry backoff; doubles per attempt, capped, jittered in
  /// [0.5, 1.0]x from the fault-seed RNG.
  double retry_base_backoff_ms = 1.0;
  double retry_max_backoff_ms = 50.0;
  StaleCacheOptions stale;
};

/// Shared state of the resilience control plane: per-shard breakers, the
/// retry budget, the stale cache, the deterministic jitter RNG, and every
/// counter the metrics registry exports. Owned by the router in a shared_ptr so deferred response
/// wrappers can outlive it. All methods are thread-safe.
class ResilienceControl {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;
  /// Anomaly hook: `(shard_id, reason)` on breaker flips and supervisor
  /// actions; the router wires this to its flight-recorder dump.
  using AnomalyHook = std::function<void(int, std::string_view)>;

  ResilienceControl(const ResilienceOptions& options, uint64_t seed,
                    AnomalyHook on_anomaly = nullptr);

  /// --- breaker surface -----------------------------------------------
  /// Routing-time gate for `shard_id` (lazily creates its breaker).
  bool AllowShard(int shard_id, TimePoint now);
  /// Terminal-outcome feed from the shard's on_complete hook; `failed` is
  /// IsShardFailure of the outcome's status.
  void OnShardResult(int shard_id, bool failed, TimePoint now);
  /// State without side effects; kClosed for shards never seen.
  BreakerState ShardState(int shard_id) const;
  /// Supervisor entry: places the shard's breaker in half-open probation.
  void BeginProbation(int shard_id, TimePoint now);

  /// --- retry surface --------------------------------------------------
  /// Feeds the retry budget from one observed request.
  void OnRequestObserved() { budget_.OnRequest(); }
  /// Spends one retry token; counts the attempt or the denial.
  bool TryAcquireRetry();
  /// Counts a retry denied for a reason other than the budget (deadline
  /// headroom below kMinRetryHeadroomMs).
  void NoteRetryDenied();
  /// Backoff for re-dispatch `attempt` (0-based): base * 2^attempt, capped,
  /// scaled by a deterministic jitter in [0.5, 1.0].
  double RetryBackoffMs(int attempt);

  /// --- stale / supervisor surface -------------------------------------
  StaleCache& stale() { return stale_; }
  void NoteStaleServe() {
    stale_serves_.fetch_add(1, std::memory_order_relaxed);
  }
  void NoteSupervisorRestart(int shard_id, TimePoint now);

  /// --- accounting ------------------------------------------------------
  uint64_t retries_attempted() const { return retries_attempted_.load(); }
  uint64_t retries_denied() const { return retries_denied_.load(); }
  uint64_t stale_serves() const { return stale_serves_.load(); }
  uint64_t supervisor_restarts() const {
    return supervisor_restarts_.load();
  }
  uint64_t breaker_opens() const { return breaker_opens_.load(); }
  double retry_tokens() const { return budget_.tokens(); }

  /// Exports breaker states (cluster_breaker_state{shard="N"}) and every
  /// counter (cluster_retries_attempted_total, ...) into `registry`.
  void ExportToRegistry(obs::MetricsRegistry& registry) const;
  /// Human-readable /statusz section body.
  std::string StatusReport(TimePoint now) const;

 private:
  CircuitBreaker& BreakerFor(int shard_id);  // takes breaker_mutex_

  const ResilienceOptions options_;
  const AnomalyHook on_anomaly_;

  mutable std::mutex breaker_mutex_;  // guards the breakers_ map (not the
                                      // breakers: each has its own lock)
  std::map<int, std::unique_ptr<CircuitBreaker>> breakers_;

  RetryBudget budget_;
  StaleCache stale_;

  std::mutex rng_mutex_;
  Rng rng_;

  std::atomic<uint64_t> retries_attempted_{0};
  std::atomic<uint64_t> retries_denied_{0};
  std::atomic<uint64_t> stale_serves_{0};
  std::atomic<uint64_t> supervisor_restarts_{0};
  std::atomic<uint64_t> breaker_opens_{0};
};

struct SupervisorOptions {
  /// Thread poll cadence (Start/Stop mode; PollOnce ignores it).
  double poll_interval_ms = 20.0;
  /// First-restart delay after a crash is observed; doubles per failed
  /// attempt, capped at max_backoff_ms.
  double restart_backoff_ms = 50.0;
  double max_backoff_ms = 2000.0;
  /// Consecutive polls a shard must hold its watchdog-stall latch before
  /// the supervisor force-crashes (and then restarts) it.
  int wedged_polls = 3;
  /// Time source; tests inject a fake clock to assert the exact schedule.
  std::function<std::chrono::steady_clock::time_point()> clock;
};

/// Self-healing loop: watches the router's crashed-shard set and watchdog
/// latches and restarts shards on a capped exponential backoff schedule.
/// Run it as a thread (Start/Stop) or drive PollOnce deterministically.
/// Holds a reference to the router: Stop() before destroying it.
class ShardSupervisor {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit ShardSupervisor(ShardRouter& router,
                           SupervisorOptions options = {});
  ~ShardSupervisor();  // implies Stop()

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  void Start();
  void Stop();

  /// One deterministic supervision pass at the injected clock's now():
  /// advances wedge counters, schedules newly-crashed shards, attempts the
  /// restarts that are due, and grows backoff on failures. Returns the
  /// number of successful restarts this pass.
  int PollOnce();

  uint64_t restarts_total() const {
    return restarts_.load(std::memory_order_relaxed);
  }
  uint64_t restart_failures_total() const {
    return failures_.load(std::memory_order_relaxed);
  }
  uint64_t wedge_kills_total() const {
    return wedge_kills_.load(std::memory_order_relaxed);
  }

  /// The pending restart schedule (tests assert exact backoff times).
  struct RestartPlan {
    int shard_id = -1;
    int failed_attempts = 0;
    TimePoint next_attempt_at{};
  };
  std::vector<RestartPlan> Plans() const;

  double BackoffMs(int failed_attempts) const;

 private:
  void Loop();

  ShardRouter& router_;
  const SupervisorOptions options_;
  const std::function<TimePoint()> clock_;

  mutable std::mutex mutex_;  // guards plans_ and wedged_counts_
  std::map<int, RestartPlan> plans_;
  std::map<int, int> wedged_counts_;

  std::atomic<uint64_t> restarts_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> wedge_kills_{0};

  std::mutex lifecycle_mutex_;
  std::condition_variable stop_cv_;
  bool running_ = false;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace cascn::cluster

#endif  // CASCN_CLUSTER_RESILIENCE_H_

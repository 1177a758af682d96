// Resilience control plane for the sharded serving tier: the *reaction*
// half of the detect->react loop whose detection half (fault points, health
// states, watchdog latches, SLO burn, flight recorder) earlier PRs built.
//
// Three policies, all deterministic under an injected clock and the fault
// registry's seed so chaos tests can assert exact schedules:
//
//  - CircuitBreaker (per shard): closed -> open when the failure rate over
//    a clock-injected 10 s window reaches 50% with at least 8 requests in
//    it -> half-open probe after a 2 s cooldown -> closed after 4 clean
//    requests. Consulted at routing time, so an open shard is skipped by
//    the bounded-load ring walk instead of timing out every request.
//
//  - RetryBudget (global): a token bucket that every observed request
//    refills by 0.1 token, capped at 32 tokens, and that governs the single
//    re-dispatch of idempotent Predict calls on Unavailable/DeadlineExceeded.
//    Re-dispatch always carries the REMAINING deadline (never the original)
//    and backs off exponentially (1 ms doubling to at most 50 ms) with
//    jitter drawn from the fault-seed RNG.
//
//  - StaleCache: an LRU of 1024 sessions' last-good predictions. When a
//    pinned shard is open/dead and the retry budget is spent, the router can
//    answer with a clearly-marked stale response (ServeResponse::stale, age
//    recorded) instead of an error — gated by
//    ShardRouterOptions::allow_stale. Closing a session forgets its answer.
//
// ShardSupervisor closes the loop for hard failures: a thread that watches
// the router's crashed-shard set and watchdog latches and auto-restarts
// dead or wedged shards on an exponential backoff schedule capped at 2 s,
// placing each revived shard's breaker into a half-open probation window
// (4 clean requests before full ring weight returns).

#ifndef CASCN_CLUSTER_RESILIENCE_H_
#define CASCN_CLUSTER_RESILIENCE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
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
#include "obs/outcome_window.h"

namespace cascn::cluster {

class ShardRouter;

/// Minimum deadline remainder worth re-dispatching for: a retry whose
/// remaining budget is below this floor is rejected immediately (counted as
/// denied) instead of racing a deadline it cannot meet.
inline constexpr double kMinRetryHeadroomMs = 2.0;

/// The circuit breaker's policy. The failure rate is computed over a
/// rolling kBreakerWindowSeconds of the injected clock; a closed breaker
/// opens when at least kBreakerMinRequests outcomes are in the window (a
/// single failure on an idle shard is not an outage) and the failure
/// fraction reaches kBreakerFailureRate. An open breaker holds for
/// kBreakerOpenSeconds before it allows a half-open probe, and re-closes
/// after kBreakerProbeRequests clean requests; any failure during
/// probation reopens it immediately.
inline constexpr int kBreakerWindowSeconds = 10;
inline constexpr int kBreakerMinRequests = 8;
inline constexpr double kBreakerFailureRate = 0.5;
inline constexpr int kBreakerOpenSeconds = 2;
inline constexpr int kBreakerProbeRequests = 4;

/// The retry budget: each observed request adds kRetryBudgetRatio tokens,
/// the bucket holds at most kRetryBudgetCap (also its initial balance: the
/// largest retry burst), and a retry spends one whole token.
inline constexpr double kRetryBudgetRatio = 0.1;
inline constexpr double kRetryBudgetCap = 32.0;

/// Retry backoff: kRetryBaseBackoffMs doubling per attempt, capped at
/// kRetryMaxBackoffMs, jittered in [0.5, 1.0]x from the fault-seed RNG.
inline constexpr double kRetryBaseBackoffMs = 1.0;
inline constexpr double kRetryMaxBackoffMs = 50.0;

/// Sessions whose last-good prediction the stale cache keeps, LRU-evicted.
inline constexpr size_t kStaleCacheCapacity = 1024;

/// The supervisor's restart backoff doubles per failed attempt up to this.
inline constexpr double kSupervisorMaxBackoffMs = 2000.0;
/// Consecutive polls a shard must hold its watchdog-stall latch before the
/// supervisor force-crashes (and then restarts) it.
inline constexpr int kSupervisorWedgedPolls = 3;

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

/// Per-shard circuit breaker. Thread-safe; time is always passed in, so the
/// state machine replays identically under a test clock.
class CircuitBreaker {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;
  /// `on_transition(from, to)` fires on every state change, outside the
  /// breaker's lock (so it may take leaf locks, e.g. a flight-dump mutex).
  using TransitionHook = std::function<void(BreakerState, BreakerState)>;

  explicit CircuitBreaker(TransitionHook on_transition = nullptr);

  /// Routing-time gate. Closed and half-open admit (half-open IS the probe
  /// traffic); open admits nothing until the cooldown elapses, at which
  /// point the breaker flips to half-open and admits.
  bool AllowRequest(TimePoint now);

  /// Terminal-outcome feeds (from the shard's on_complete hook).
  void RecordSuccess(TimePoint now);
  void RecordFailure(TimePoint now);

  /// Supervisor entry point: a just-restarted shard starts in half-open
  /// probation regardless of prior state.
  void BeginProbation();

  BreakerState state() const;
  /// Failure fraction over the window ending at `now` (0 when empty; the
  /// kBreakerMinRequests floor applies only to tripping).
  double FailureRate(TimePoint now) const;

 private:
  /// (from, to) of a state change; from == to when nothing changed.
  using Transition = std::pair<BreakerState, BreakerState>;

  /// Shared body of RecordSuccess and RecordFailure.
  void Record(TimePoint now, bool failed);
  /// Pre: mutex_ held. Every state change starts a fresh window.
  Transition TransitionLocked(BreakerState next);
  /// Fires the hook for a real change. Call without mutex_.
  void Notify(Transition transition) const;

  const TransitionHook on_transition_;
  mutable std::mutex mutex_;
  BreakerState state_ = BreakerState::kClosed;
  obs::OutcomeWindow window_{kBreakerWindowSeconds};  // good = success
  TimePoint open_until_{};
  int probe_successes_ = 0;
};

/// Global retry budget: a traffic-fed token bucket (kRetryBudgetRatio per
/// request, capped at kRetryBudgetCap). No clock — the budget refills from
/// request volume, so it needs no time source to stay deterministic. The
/// refill is a floating-point sum: ten refills of 0.1 make
/// 0.9999999999999999, so a drained budget allows its next retry after 11
/// requests.
class RetryBudget {
 public:
  /// Feeds the bucket from one observed request; never exceeds the cap.
  void OnRequest();
  /// Spends one token; false (nothing spent) when the bucket is dry.
  bool TryAcquire();
  double tokens() const;

 private:
  mutable std::mutex mutex_;
  double tokens_ = kRetryBudgetCap;
};

struct StaleCacheOptions {
  /// Oldest answer the stale path may serve; <= 0 serves any age.
  double max_age_ms = 0.0;  // knob: switch
};

/// A cached last-good answer, age-stamped at lookup.
struct StaleAnswer {
  double log_prediction = 0.0;
  double count_prediction = 0.0;
  double age_ms = 0.0;
};

/// LRU of each session's last successful prediction, bounded at
/// kStaleCacheCapacity sessions. Thread-safe.
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
  void BeginProbation(int shard_id);

  /// --- retry surface --------------------------------------------------
  /// Feeds the retry budget from one observed request.
  void OnRequestObserved() { budget_.OnRequest(); }
  /// Spends one retry token; counts the attempt or the denial.
  bool TryAcquireRetry();
  /// Counts a retry denied for a reason other than the budget (deadline
  /// headroom below kMinRetryHeadroomMs).
  void NoteRetryDenied();
  /// Backoff for re-dispatch `attempt` (0-based): kRetryBaseBackoffMs *
  /// 2^attempt, capped at kRetryMaxBackoffMs, scaled by a deterministic
  /// jitter in [0.5, 1.0].
  double RetryBackoffMs(int attempt);

  /// --- stale / supervisor surface -------------------------------------
  StaleCache& stale() { return stale_; }
  void NoteStaleServe() {
    stale_serves_.fetch_add(1, std::memory_order_relaxed);
  }
  void NoteSupervisorRestart(int shard_id);

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
  /// attempt, capped at kSupervisorMaxBackoffMs.
  double restart_backoff_ms = 50.0;
  /// Time source; tests inject a fake clock to assert the exact schedule.
  // knob: test-seam
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

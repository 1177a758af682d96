#include "cluster/resilience.h"

#include <algorithm>
#include <cmath>

#include "cluster/shard_router.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace cascn::cluster {

namespace {

using std::chrono::duration;
using std::chrono::duration_cast;

double MsBetween(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return duration<double, std::milli>(to - from).count();
}

double FailureRateOf(const obs::OutcomeWindow::Counts& counts) {
  return counts.total == 0 ? 0.0
                           : static_cast<double>(counts.total - counts.good) /
                                 static_cast<double>(counts.total);
}

std::chrono::steady_clock::duration MsDuration(double ms) {
  return duration_cast<std::chrono::steady_clock::duration>(
      duration<double, std::milli>(ms));
}

}  // namespace

std::string_view BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// CircuitBreaker

CircuitBreaker::CircuitBreaker(TransitionHook on_transition)
    : on_transition_(std::move(on_transition)) {}

CircuitBreaker::Transition CircuitBreaker::TransitionLocked(
    BreakerState next) {
  const BreakerState from = state_;
  state_ = next;
  if (from != next) {
    window_.Clear();
    probe_successes_ = 0;
  }
  return {from, next};
}

void CircuitBreaker::Notify(Transition transition) const {
  if (transition.first != transition.second && on_transition_)
    on_transition_(transition.first, transition.second);
}

bool CircuitBreaker::AllowRequest(TimePoint now) {
  Transition transition;
  bool allow = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Closed and half-open admit; open admits once its cooldown is over,
    // and that first admitted request is the half-open probe.
    if (state_ == BreakerState::kOpen) {
      allow = now >= open_until_;
      if (allow) transition = TransitionLocked(BreakerState::kHalfOpen);
    }
  }
  Notify(transition);
  return allow;
}

void CircuitBreaker::RecordSuccess(TimePoint now) { Record(now, false); }

void CircuitBreaker::RecordFailure(TimePoint now) { Record(now, true); }

void CircuitBreaker::Record(TimePoint now, bool failed) {
  Transition transition;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    bool open = false;
    switch (state_) {
      case BreakerState::kClosed: {
        window_.Record(now, !failed);
        const obs::OutcomeWindow::Counts counts =
            window_.Sum(now, kBreakerWindowSeconds);
        open = failed &&
               counts.total >= static_cast<uint64_t>(kBreakerMinRequests) &&
               FailureRateOf(counts) >= kBreakerFailureRate;
        break;
      }
      case BreakerState::kHalfOpen:
        // Any failure during probation reopens immediately.
        open = failed;
        if (!failed && ++probe_successes_ >= kBreakerProbeRequests)
          transition = TransitionLocked(BreakerState::kClosed);
        break;
      case BreakerState::kOpen:
        break;  // a straggler from before the trip; ignore
    }
    if (open) {
      open_until_ = now + std::chrono::seconds(kBreakerOpenSeconds);
      transition = TransitionLocked(BreakerState::kOpen);
    }
  }
  Notify(transition);
}

void CircuitBreaker::BeginProbation() {
  Transition transition;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    transition = TransitionLocked(BreakerState::kHalfOpen);
    probe_successes_ = 0;  // also when it was half-open already
  }
  Notify(transition);
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

double CircuitBreaker::FailureRate(TimePoint now) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return FailureRateOf(window_.Sum(now, kBreakerWindowSeconds));
}

// ---------------------------------------------------------------------------
// RetryBudget

void RetryBudget::OnRequest() {
  std::lock_guard<std::mutex> lock(mutex_);
  tokens_ = std::min(kRetryBudgetCap, tokens_ + kRetryBudgetRatio);
}

bool RetryBudget::TryAcquire() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double RetryBudget::tokens() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tokens_;
}

// ---------------------------------------------------------------------------
// StaleCache

StaleCache::StaleCache(const StaleCacheOptions& options) : options_(options) {}

void StaleCache::StorePrediction(const std::string& session_id,
                                 double log_prediction,
                                 double count_prediction, TimePoint now) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(session_id);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  } else {
    while (entries_.size() >= kStaleCacheCapacity && !lru_.empty()) {
      entries_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(session_id);
    it = entries_.emplace(session_id, Entry{}).first;
    it->second.lru_it = lru_.begin();
  }
  it->second.log_prediction = log_prediction;
  it->second.count_prediction = count_prediction;
  it->second.stored_at = now;
}

std::optional<StaleAnswer> StaleCache::Lookup(const std::string& session_id,
                                              TimePoint now) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(session_id);
  if (it == entries_.end()) return std::nullopt;
  const double age_ms = std::max(0.0, MsBetween(it->second.stored_at, now));
  if (options_.max_age_ms > 0.0 && age_ms > options_.max_age_ms)
    return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return StaleAnswer{it->second.log_prediction, it->second.count_prediction,
                     age_ms};
}

void StaleCache::OnClose(const std::string& session_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(session_id);
  if (it == entries_.end()) return;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

size_t StaleCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

// ---------------------------------------------------------------------------
// ResilienceControl

ResilienceControl::ResilienceControl(const ResilienceOptions& options,
                                     uint64_t seed, AnomalyHook on_anomaly)
    : on_anomaly_(std::move(on_anomaly)),
      stale_(options.stale),
      // Offset so the jitter stream differs from other consumers of the
      // fault seed while remaining reproducible from it.
      rng_(seed ^ 0x7265736c69656e63ull) {}

CircuitBreaker& ResilienceControl::BreakerFor(int shard_id) {
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  std::unique_ptr<CircuitBreaker>& slot = breakers_[shard_id];
  if (!slot) {
    slot = std::make_unique<CircuitBreaker>(
        [this, shard_id](BreakerState, BreakerState to) {
          if (to == BreakerState::kOpen)
            breaker_opens_.fetch_add(1, std::memory_order_relaxed);
          if (on_anomaly_)
            on_anomaly_(shard_id,
                        StrFormat("breaker_%s",
                                  std::string(BreakerStateName(to)).c_str()));
        });
  }
  return *slot;
}

bool ResilienceControl::AllowShard(int shard_id, TimePoint now) {
  return BreakerFor(shard_id).AllowRequest(now);
}

void ResilienceControl::OnShardResult(int shard_id, bool failed,
                                      TimePoint now) {
  CircuitBreaker& breaker = BreakerFor(shard_id);
  if (failed) {
    breaker.RecordFailure(now);
  } else {
    breaker.RecordSuccess(now);
  }
}

BreakerState ResilienceControl::ShardState(int shard_id) const {
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  auto it = breakers_.find(shard_id);
  return it == breakers_.end() ? BreakerState::kClosed : it->second->state();
}

void ResilienceControl::BeginProbation(int shard_id) {
  BreakerFor(shard_id).BeginProbation();
}

bool ResilienceControl::TryAcquireRetry() {
  if (budget_.TryAcquire()) {
    retries_attempted_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  retries_denied_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void ResilienceControl::NoteRetryDenied() {
  retries_denied_.fetch_add(1, std::memory_order_relaxed);
}

double ResilienceControl::RetryBackoffMs(int attempt) {
  double base = kRetryBaseBackoffMs;
  for (int i = 0; i < attempt && base < kRetryMaxBackoffMs; ++i) base *= 2.0;
  base = std::min(base, kRetryMaxBackoffMs);
  double jitter;
  {
    std::lock_guard<std::mutex> lock(rng_mutex_);
    jitter = 0.5 + 0.5 * rng_.Uniform();
  }
  return base * jitter;
}

void ResilienceControl::NoteSupervisorRestart(int shard_id) {
  supervisor_restarts_.fetch_add(1, std::memory_order_relaxed);
  BeginProbation(shard_id);
  if (on_anomaly_) on_anomaly_(shard_id, "supervisor_restart");
}

void ResilienceControl::ExportToRegistry(obs::MetricsRegistry& registry) const {
  {
    std::lock_guard<std::mutex> lock(breaker_mutex_);
    for (const auto& [shard, breaker] : breakers_)
      registry
          .GetGauge(StrFormat("cluster_breaker_state{shard=\"%d\"}", shard))
          .Set(static_cast<double>(static_cast<int>(breaker->state())));
  }
  registry.GetCounter("cluster_retries_attempted_total")
      .Increment(retries_attempted());
  registry.GetCounter("cluster_retries_denied_total")
      .Increment(retries_denied());
  registry.GetCounter("cluster_stale_serves_total").Increment(stale_serves());
  registry.GetCounter("cluster_supervisor_restarts_total")
      .Increment(supervisor_restarts());
  registry.GetCounter("cluster_breaker_opens_total")
      .Increment(breaker_opens());
  registry.GetGauge("cluster_retry_budget_tokens").Set(budget_.tokens());
  registry.GetGauge("cluster_stale_cache_sessions")
      .Set(static_cast<double>(stale_.size()));
}

std::string ResilienceControl::StatusReport(TimePoint now) const {
  std::string report;
  report += StrFormat(
      "retry budget: %.1f tokens (attempted %llu, denied %llu)\n",
      budget_.tokens(),
      static_cast<unsigned long long>(retries_attempted()),
      static_cast<unsigned long long>(retries_denied()));
  report += StrFormat(
      "stale cache: %zu sessions, %llu stale serves\n", stale_.size(),
      static_cast<unsigned long long>(stale_serves()));
  report += StrFormat(
      "supervisor restarts: %llu, breaker opens: %llu\n",
      static_cast<unsigned long long>(supervisor_restarts()),
      static_cast<unsigned long long>(breaker_opens()));
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  for (const auto& [shard, breaker] : breakers_)
    report += StrFormat(
        "breaker shard %d: %s (failure rate %.2f)\n", shard,
        std::string(BreakerStateName(breaker->state())).c_str(),
        breaker->FailureRate(now));
  return report;
}

// ---------------------------------------------------------------------------
// ShardSupervisor

ShardSupervisor::ShardSupervisor(ShardRouter& router,
                                 SupervisorOptions options)
    : router_(router),
      options_(options),
      clock_(options.clock ? options.clock
                           : [] { return std::chrono::steady_clock::now(); }) {
  CASCN_CHECK(options_.poll_interval_ms > 0.0);
  CASCN_CHECK(options_.restart_backoff_ms >= 0.0);
  CASCN_CHECK(kSupervisorMaxBackoffMs >= options_.restart_backoff_ms);
}

ShardSupervisor::~ShardSupervisor() { Stop(); }

double ShardSupervisor::BackoffMs(int failed_attempts) const {
  double backoff = options_.restart_backoff_ms;
  for (int i = 0; i < failed_attempts && backoff < kSupervisorMaxBackoffMs;
       ++i)
    backoff *= 2.0;
  return std::min(backoff, kSupervisorMaxBackoffMs);
}

int ShardSupervisor::PollOnce() {
  const TimePoint now = clock_();

  // 1. Wedge detection: a shard whose watchdog-stall latch holds for
  //    kSupervisorWedgedPolls consecutive passes is force-crashed; the
  //    crash path below then schedules its restart like any other dead
  //    shard.
  const std::vector<int> wedged = router_.WatchdogWedgedShardIds();
  std::vector<int> to_kill;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = wedged_counts_.begin(); it != wedged_counts_.end();) {
      if (std::find(wedged.begin(), wedged.end(), it->first) == wedged.end()) {
        it = wedged_counts_.erase(it);  // recovered on its own
      } else {
        ++it;
      }
    }
    for (int shard_id : wedged) {
      if (++wedged_counts_[shard_id] >= kSupervisorWedgedPolls) {
        to_kill.push_back(shard_id);
        wedged_counts_.erase(shard_id);
      }
    }
  }
  for (int shard_id : to_kill) {
    CASCN_LOG(WARNING) << "supervisor: shard " << shard_id
                       << " wedged (watchdog stall held "
                       << kSupervisorWedgedPolls
                       << " polls); force-restarting";
    router_.CrashShard(shard_id);
    wedge_kills_.fetch_add(1, std::memory_order_relaxed);
  }

  // 2. Schedule newly-observed crashes and collect due restart attempts.
  const std::vector<int> crashed = router_.CrashedShardIds();
  std::vector<int> due;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int shard_id : crashed) {
      if (plans_.find(shard_id) == plans_.end())
        plans_[shard_id] =
            RestartPlan{shard_id, 0, now + MsDuration(BackoffMs(0))};
    }
    for (auto it = plans_.begin(); it != plans_.end();) {
      if (std::find(crashed.begin(), crashed.end(), it->first) ==
          crashed.end()) {
        it = plans_.erase(it);  // revived out from under us
        continue;
      }
      if (now >= it->second.next_attempt_at) due.push_back(it->first);
      ++it;
    }
  }

  // 3. Attempt the due restarts (outside our lock: RestartShard takes the
  //    router's routing lock and loads a checkpoint).
  int restarted = 0;
  for (int shard_id : due) {
    const Status status = router_.RestartShard(shard_id);
    bool success = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = plans_.find(shard_id);
      if (status.ok()) {
        if (it != plans_.end()) plans_.erase(it);
        success = true;
      } else if (it != plans_.end()) {
        ++it->second.failed_attempts;
        it->second.next_attempt_at =
            now + MsDuration(BackoffMs(it->second.failed_attempts));
      }
    }
    if (success) {
      restarts_.fetch_add(1, std::memory_order_relaxed);
      ++restarted;
      router_.NoteSupervisorRestart(shard_id);
    } else {
      failures_.fetch_add(1, std::memory_order_relaxed);
      CASCN_LOG(WARNING) << "supervisor: restart of shard " << shard_id
                         << " failed: " << status.ToString();
    }
  }
  return restarted;
}

std::vector<ShardSupervisor::RestartPlan> ShardSupervisor::Plans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RestartPlan> plans;
  plans.reserve(plans_.size());
  for (const auto& [shard_id, plan] : plans_) plans.push_back(plan);
  return plans;
}

void ShardSupervisor::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (running_) return;
  running_ = true;
  stop_requested_ = false;
  thread_ = std::thread(&ShardSupervisor::Loop, this);
}

void ShardSupervisor::Stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  running_ = false;
}

void ShardSupervisor::Loop() {
  std::unique_lock<std::mutex> lock(lifecycle_mutex_);
  while (!stop_requested_) {
    lock.unlock();
    PollOnce();
    lock.lock();
    stop_cv_.wait_for(lock, MsDuration(options_.poll_interval_ms),
                      [this] { return stop_requested_; });
  }
}

}  // namespace cascn::cluster

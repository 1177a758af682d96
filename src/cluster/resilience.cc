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

int64_t SecondOf(std::chrono::steady_clock::time_point t) {
  return duration_cast<std::chrono::seconds>(t.time_since_epoch()).count();
}

double MsBetween(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return duration<double, std::milli>(to - from).count();
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

CircuitBreaker::CircuitBreaker(const BreakerOptions& options,
                               TransitionHook on_transition)
    : options_(options), on_transition_(std::move(on_transition)) {
  CASCN_CHECK(options_.window_seconds > 0.0);
  CASCN_CHECK(options_.failure_rate_threshold > 0.0);
  CASCN_CHECK(options_.probe_requests >= 1);
}

void CircuitBreaker::AdvanceLocked(TimePoint now) {
  const int64_t horizon =
      SecondOf(now) - static_cast<int64_t>(options_.window_seconds);
  while (!window_.empty() && window_.front().second <= horizon)
    window_.pop_front();
}

std::pair<BreakerState, BreakerState> CircuitBreaker::TransitionLocked(
    BreakerState next) {
  const BreakerState from = state_;
  state_ = next;
  if (from != next) window_.clear();  // each state starts a fresh window
  return {from, next};
}

double CircuitBreaker::FailureRateLocked() const {
  uint64_t ok = 0;
  uint64_t failed = 0;
  for (const Bucket& bucket : window_) {
    ok += bucket.ok;
    failed += bucket.failed;
  }
  const uint64_t total = ok + failed;
  if (total < static_cast<uint64_t>(std::max(1, options_.min_requests)))
    return 0.0;
  return static_cast<double>(failed) / static_cast<double>(total);
}

bool CircuitBreaker::AllowRequest(TimePoint now) {
  std::pair<BreakerState, BreakerState> transition{state_, state_};
  bool allow = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    AdvanceLocked(now);
    switch (state_) {
      case BreakerState::kClosed:
      case BreakerState::kHalfOpen:
        allow = true;
        break;
      case BreakerState::kOpen:
        if (now >= open_until_) {
          transition = TransitionLocked(BreakerState::kHalfOpen);
          probe_needed_ = options_.probe_requests;
          probe_successes_ = 0;
          allow = true;
        } else {
          allow = false;
        }
        break;
    }
  }
  if (transition.first != transition.second && on_transition_)
    on_transition_(transition.first, transition.second);
  return allow;
}

void CircuitBreaker::RecordSuccess(TimePoint now) {
  std::pair<BreakerState, BreakerState> transition{state_, state_};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    AdvanceLocked(now);
    switch (state_) {
      case BreakerState::kClosed: {
        const int64_t second = SecondOf(now);
        if (window_.empty() || window_.back().second < second)
          window_.push_back(Bucket{second, 0, 0});
        ++window_.back().ok;
        break;
      }
      case BreakerState::kHalfOpen:
        if (++probe_successes_ >= probe_needed_)
          transition = TransitionLocked(BreakerState::kClosed);
        break;
      case BreakerState::kOpen:
        break;  // a straggler from before the trip; ignore
    }
  }
  if (transition.first != transition.second && on_transition_)
    on_transition_(transition.first, transition.second);
}

void CircuitBreaker::RecordFailure(TimePoint now) {
  std::pair<BreakerState, BreakerState> transition{state_, state_};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    AdvanceLocked(now);
    switch (state_) {
      case BreakerState::kClosed: {
        const int64_t second = SecondOf(now);
        if (window_.empty() || window_.back().second < second)
          window_.push_back(Bucket{second, 0, 0});
        ++window_.back().failed;
        if (FailureRateLocked() >= options_.failure_rate_threshold) {
          open_until_ = now + MsDuration(options_.open_seconds * 1000.0);
          transition = TransitionLocked(BreakerState::kOpen);
        }
        break;
      }
      case BreakerState::kHalfOpen:
        // Any failure during probation reopens immediately.
        open_until_ = now + MsDuration(options_.open_seconds * 1000.0);
        transition = TransitionLocked(BreakerState::kOpen);
        break;
      case BreakerState::kOpen:
        break;
    }
  }
  if (transition.first != transition.second && on_transition_)
    on_transition_(transition.first, transition.second);
}

void CircuitBreaker::BeginProbation(TimePoint now, int probe_requests) {
  std::pair<BreakerState, BreakerState> transition{state_, state_};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    AdvanceLocked(now);
    probe_needed_ =
        probe_requests > 0 ? probe_requests : options_.probe_requests;
    probe_successes_ = 0;
    transition = TransitionLocked(BreakerState::kHalfOpen);
  }
  if (transition.first != transition.second && on_transition_)
    on_transition_(transition.first, transition.second);
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

double CircuitBreaker::FailureRate(TimePoint now) const {
  const int64_t horizon =
      SecondOf(now) - static_cast<int64_t>(options_.window_seconds);
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t ok = 0;
  uint64_t failed = 0;
  for (const Bucket& bucket : window_) {
    if (bucket.second <= horizon) continue;
    ok += bucket.ok;
    failed += bucket.failed;
  }
  const uint64_t total = ok + failed;
  return total == 0 ? 0.0
                    : static_cast<double>(failed) / static_cast<double>(total);
}

// ---------------------------------------------------------------------------
// RetryBudget

RetryBudget::RetryBudget(const RetryBudgetOptions& options)
    : options_(options), tokens_(options.cap) {
  CASCN_CHECK(options_.ratio >= 0.0);
  CASCN_CHECK(options_.cap >= 1.0);
}

void RetryBudget::OnRequest() {
  std::lock_guard<std::mutex> lock(mutex_);
  tokens_ = std::min(options_.cap, tokens_ + options_.ratio);
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

StaleCache::StaleCache(const StaleCacheOptions& options) : options_(options) {
  CASCN_CHECK(options_.capacity >= 1);
}

void StaleCache::StorePrediction(const std::string& session_id,
                                 double log_prediction,
                                 double count_prediction, TimePoint now) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(session_id);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  } else {
    while (entries_.size() >= options_.capacity && !lru_.empty()) {
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
    : options_(options),
      on_anomaly_(std::move(on_anomaly)),
      budget_(options.retry_budget),
      stale_(options.stale),
      // Offset so the jitter stream differs from other consumers of the
      // fault seed while remaining reproducible from it.
      rng_(seed ^ 0x7265736c69656e63ull) {}

CircuitBreaker& ResilienceControl::BreakerFor(int shard_id) {
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  std::unique_ptr<CircuitBreaker>& slot = breakers_[shard_id];
  if (!slot) {
    slot = std::make_unique<CircuitBreaker>(
        options_.breaker, [this, shard_id](BreakerState, BreakerState to) {
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

void ResilienceControl::BeginProbation(int shard_id, TimePoint now) {
  BreakerFor(shard_id).BeginProbation(now);
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
  double base = options_.retry_base_backoff_ms;
  for (int i = 0; i < attempt && base < options_.retry_max_backoff_ms; ++i)
    base *= 2.0;
  base = std::min(base, options_.retry_max_backoff_ms);
  double jitter;
  {
    std::lock_guard<std::mutex> lock(rng_mutex_);
    jitter = 0.5 + 0.5 * rng_.Uniform();
  }
  return base * jitter;
}

void ResilienceControl::NoteSupervisorRestart(int shard_id, TimePoint now) {
  supervisor_restarts_.fetch_add(1, std::memory_order_relaxed);
  BeginProbation(shard_id, now);
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
  CASCN_CHECK(options_.max_backoff_ms >= options_.restart_backoff_ms);
}

ShardSupervisor::~ShardSupervisor() { Stop(); }

double ShardSupervisor::BackoffMs(int failed_attempts) const {
  double backoff = options_.restart_backoff_ms;
  for (int i = 0; i < failed_attempts && backoff < options_.max_backoff_ms;
       ++i)
    backoff *= 2.0;
  return std::min(backoff, options_.max_backoff_ms);
}

int ShardSupervisor::PollOnce() {
  const TimePoint now = clock_();

  // 1. Wedge detection: a shard whose watchdog-stall latch holds for
  //    `wedged_polls` consecutive passes is force-crashed; the crash path
  //    below then schedules its restart like any other dead shard.
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
      if (++wedged_counts_[shard_id] >= options_.wedged_polls) {
        to_kill.push_back(shard_id);
        wedged_counts_.erase(shard_id);
      }
    }
  }
  for (int shard_id : to_kill) {
    CASCN_LOG(WARNING) << "supervisor: shard " << shard_id
                       << " wedged (watchdog stall held "
                       << options_.wedged_polls << " polls); force-restarting";
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

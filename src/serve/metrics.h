// ServeMetrics: lock-cheap operational counters and latency histograms for
// the prediction service. Every mutation is a single relaxed atomic
// increment, so recording from many worker threads never contends on a
// lock; Snapshot() assembles a consistent-enough view for reporting
// (individual counters are exact; cross-counter skew is bounded by what was
// in flight during the read).
//
// The latency histogram is an obs::Histogram (log2 buckets); counters are
// obs::Counter. ExportToRegistry() bridges a snapshot into an
// obs::MetricsRegistry so serve numbers appear in the unified exposition
// next to trainer and system metrics.

#ifndef CASCN_SERVE_METRICS_H_
#define CASCN_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics_registry.h"

namespace cascn::serve {

/// Counter identifiers. Keep kNumCounters last.
enum class Counter : int {
  kRequestsTotal = 0,    // accepted into the queue
  kRequestsRejected,     // refused with Unavailable (backpressure/shutdown)
  kSessionsCreated,
  kAppends,
  kPredictions,
  kSessionsClosed,
  kEvictions,            // idle sessions LRU-evicted at capacity
  kSpilled,              // evicted sessions whose history was kept serialized
  kSpillRestores,        // spilled sessions transparently restored on touch
  kSpillDropped,         // spilled histories discarded by the bounded spill LRU
  kPredictionCacheHits,  // predictions served from the per-session cache
  kBatches,              // worker dequeues that drained > 1 request
  kBatchedRequests,      // requests processed as part of such a batch
  kErrors,               // requests that completed with a non-OK status
  kDeadlineExceeded,     // requests failed fast for missing their deadline
  kLoadRetries,          // checkpoint load attempts retried after a failure
  kReloads,              // successful hot checkpoint reloads
  kReloadFailures,       // reloads rejected with the old version kept serving
  kShutdownDrained,      // queued requests failed by Shutdown() before running
  kNumCounters,
};

std::string_view CounterName(Counter c);

/// Coarse service condition, maintained by the prediction service:
/// kHealthy while serving normally, kDegraded after a failed hot reload
/// (old version still serving), kUnhealthy once shut down.
enum class Health : int { kHealthy = 0, kDegraded = 1, kUnhealthy = 2 };

std::string_view HealthName(Health h);

/// Aggregated metrics over many threads. All methods are thread-safe.
class ServeMetrics {
 public:
  static constexpr int kNumLatencyBuckets = 24;

  ServeMetrics() : latency_(kNumLatencyBuckets) {}

  void Increment(Counter c, uint64_t n = 1) {
    counters_[static_cast<size_t>(c)].Increment(n);
  }

  /// Records one request latency. Bucket i covers [2^i, 2^{i+1}) us; the
  /// last bucket absorbs everything above ~4 s.
  void RecordLatencyMicros(uint64_t us) { latency_.Record(us); }

  void SetHealth(Health h) {
    health_.store(static_cast<int>(h), std::memory_order_relaxed);
  }
  Health health() const {
    return static_cast<Health>(health_.load(std::memory_order_relaxed));
  }

  /// Point-in-time copy of every counter plus histogram percentiles
  /// (obs::Histogram::Snapshot::Percentile estimates — interpolated within
  /// the log2 buckets, clamped to the observed max).
  struct Snapshot {
    std::array<uint64_t, static_cast<int>(Counter::kNumCounters)> counters{};
    Health health = Health::kHealthy;
    std::array<uint64_t, kNumLatencyBuckets> latency_buckets{};
    uint64_t latency_count = 0;
    uint64_t latency_max_us = 0;
    double latency_mean_us = 0.0;
    double latency_p50_us = 0.0;
    double latency_p90_us = 0.0;
    double latency_p95_us = 0.0;
    double latency_p99_us = 0.0;

    uint64_t counter(Counter c) const {
      return counters[static_cast<int>(c)];
    }

    /// Multi-line human-readable report.
    std::string ToString() const;
    /// One JSON object (counters by name + latency percentiles).
    std::string ToJson() const;
  };

  Snapshot TakeSnapshot() const;

 private:
  std::array<obs::Counter, static_cast<int>(Counter::kNumCounters)>
      counters_{};
  obs::Histogram latency_;
  std::atomic<int> health_{static_cast<int>(Health::kHealthy)};
};

/// Bridges a serve snapshot into `registry` as gauges named
/// `serve_<counter>` plus `serve_latency_{count,mean_us,p50_us,p95_us,
/// p99_us,max_us}`. Gauges (not registry counters) because a snapshot is a
/// point-in-time copy, re-exported wholesale on every bridge call.
///
/// `label` adds a dimension to every exported name — e.g. label
/// `shard="0"` yields `serve_requests_total{shard="0"}` — so one registry
/// can expose many keyed snapshots (per shard, per tenant) side by side
/// instead of needing N parallel registries.
void ExportToRegistry(const ServeMetrics::Snapshot& snapshot,
                      obs::MetricsRegistry& registry,
                      std::string_view label = "");

}  // namespace cascn::serve

#endif  // CASCN_SERVE_METRICS_H_

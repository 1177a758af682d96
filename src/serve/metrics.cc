#include "serve/metrics.h"

#include <sstream>

#include "common/string_util.h"

namespace cascn::serve {

std::string_view CounterName(Counter c) {
  switch (c) {
    case Counter::kRequestsTotal:
      return "requests_total";
    case Counter::kRequestsRejected:
      return "requests_rejected";
    case Counter::kSessionsCreated:
      return "sessions_created";
    case Counter::kAppends:
      return "appends";
    case Counter::kPredictions:
      return "predictions";
    case Counter::kSessionsClosed:
      return "sessions_closed";
    case Counter::kEvictions:
      return "evictions";
    case Counter::kSpilled:
      return "sessions_spilled";
    case Counter::kSpillRestores:
      return "spill_restores";
    case Counter::kSpillDropped:
      return "spill_dropped";
    case Counter::kPredictionCacheHits:
      return "prediction_cache_hits";
    case Counter::kBatches:
      return "batches";
    case Counter::kBatchedRequests:
      return "batched_requests";
    case Counter::kErrors:
      return "errors";
    case Counter::kDeadlineExceeded:
      return "deadline_exceeded";
    case Counter::kShutdownDrained:
      return "shutdown_drained";
    case Counter::kNumCounters:
      break;
  }
  return "unknown";
}

std::string_view HealthName(Health h) {
  switch (h) {
    case Health::kHealthy:
      return "healthy";
    case Health::kDegraded:
      return "degraded";
    case Health::kUnhealthy:
      return "unhealthy";
  }
  return "unknown";
}

ServeMetrics::Snapshot ServeMetrics::TakeSnapshot() const {
  Snapshot snap;
  snap.health = health();
  for (int i = 0; i < static_cast<int>(Counter::kNumCounters); ++i)
    snap.counters[i] = counters_[i].value();
  const obs::Histogram::Snapshot latency = latency_.TakeSnapshot();
  for (int i = 0; i < kNumLatencyBuckets; ++i)
    snap.latency_buckets[i] = latency.buckets[static_cast<size_t>(i)];
  snap.latency_count = latency.count;
  snap.latency_max_us = latency.max;
  snap.latency_mean_us = latency.mean;
  snap.latency_p50_us = latency.Percentile(0.50);
  snap.latency_p90_us = latency.Percentile(0.90);
  snap.latency_p95_us = latency.Percentile(0.95);
  snap.latency_p99_us = latency.Percentile(0.99);
  return snap;
}

std::string ServeMetrics::Snapshot::ToString() const {
  std::ostringstream out;
  out << "serve metrics:\n";
  out << "  health = " << HealthName(health) << "\n";
  for (int i = 0; i < static_cast<int>(Counter::kNumCounters); ++i)
    out << "  " << CounterName(static_cast<Counter>(i)) << " = "
        << counters[i] << "\n";
  out << StrFormat(
      "  latency: n=%llu mean=%.1fus p50~%.0fus p90~%.0fus p95~%.0fus "
      "p99~%.0fus max=%lluus\n",
      static_cast<unsigned long long>(latency_count), latency_mean_us,
      latency_p50_us, latency_p90_us, latency_p95_us, latency_p99_us,
      static_cast<unsigned long long>(latency_max_us));
  return out.str();
}

std::string ServeMetrics::Snapshot::ToJson() const {
  std::ostringstream out;
  out << "{\"health\": \"" << HealthName(health) << "\", ";
  for (int i = 0; i < static_cast<int>(Counter::kNumCounters); ++i)
    out << "\"" << CounterName(static_cast<Counter>(i)) << "\": " << counters[i]
        << ", ";
  out << StrFormat(
      "\"latency_count\": %llu, \"latency_mean_us\": %.1f, "
      "\"latency_p50_us\": %.1f, \"latency_p90_us\": %.1f, "
      "\"latency_p95_us\": %.1f, \"latency_p99_us\": %.1f, "
      "\"latency_max_us\": %llu}",
      static_cast<unsigned long long>(latency_count), latency_mean_us,
      latency_p50_us, latency_p90_us, latency_p95_us, latency_p99_us,
      static_cast<unsigned long long>(latency_max_us));
  return out.str();
}

void ExportToRegistry(const ServeMetrics::Snapshot& snapshot,
                      obs::MetricsRegistry& registry,
                      std::string_view label) {
  const std::string suffix =
      label.empty() ? std::string() : "{" + std::string(label) + "}";
  auto gauge = [&](const std::string& name) -> obs::Gauge& {
    return registry.GetGauge(name + suffix);
  };
  for (int i = 0; i < static_cast<int>(Counter::kNumCounters); ++i) {
    const std::string name =
        "serve_" + std::string(CounterName(static_cast<Counter>(i)));
    gauge(name).Set(static_cast<double>(snapshot.counters[i]));
  }
  gauge("serve_health")
      .Set(static_cast<double>(static_cast<int>(snapshot.health)));
  gauge("serve_latency_count")
      .Set(static_cast<double>(snapshot.latency_count));
  gauge("serve_latency_mean_us").Set(snapshot.latency_mean_us);
  gauge("serve_latency_p50_us").Set(snapshot.latency_p50_us);
  gauge("serve_latency_p95_us").Set(snapshot.latency_p95_us);
  gauge("serve_latency_p99_us").Set(snapshot.latency_p99_us);
  gauge("serve_latency_max_us")
      .Set(static_cast<double>(snapshot.latency_max_us));
}

}  // namespace cascn::serve

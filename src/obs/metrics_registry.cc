#include "obs/metrics_registry.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace cascn::obs {

namespace {

// Text exposition is line-oriented: a newline inside a name would split one
// metric across lines. Quotes and backslashes stay as-is — label VALUES are
// already escaped at name construction (EscapeLabelValue), and the text
// format reads `name{label="value"}` literally — so only control characters
// need rendering.
std::string TextEscapeName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    switch (c) {
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<unsigned>(
                                          static_cast<unsigned char>(c)));
        } else {
          out += c;
        }
    }
  }
  return out;
}

// OpenMetrics metadata (# HELP / # TYPE) attaches to the metric FAMILY: the
// name with any {label="..."} sample suffix stripped.
std::string_view FamilyName(std::string_view name) {
  const size_t brace = name.find('{');
  return brace == std::string_view::npos ? name : name.substr(0, brace);
}

// Emits the family's # HELP and # TYPE comment lines before its first
// sample. `seen` dedups across labeled samples of one family (and across
// sections, so a name collision between kinds cannot emit two conflicting
// TYPE lines for the same family).
void EmitFamilyHeader(std::ostringstream& out, std::string_view name,
                      const char* type, const char* help,
                      std::set<std::string_view>& seen) {
  const std::string_view family = FamilyName(name);
  if (!seen.insert(family).second) return;
  const std::string escaped = TextEscapeName(family);
  out << "# HELP " << escaped << " " << help << "\n";
  out << "# TYPE " << escaped << " " << type << "\n";
}

}  // namespace

std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\0': break;  // see header: NULs are dropped, not escaped
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\x%02x", static_cast<unsigned>(
                                          static_cast<unsigned char>(c)));
        } else {
          out += c;
        }
    }
  }
  return out;
}

Histogram::Histogram(int num_buckets)
    : num_buckets_(num_buckets),
      buckets_(new std::atomic<uint64_t>[static_cast<size_t>(num_buckets)]) {
  CASCN_CHECK(num_buckets >= 1 && num_buckets <= 63)
      << "log2 bucket count out of range: " << num_buckets;
  for (int i = 0; i < num_buckets_; ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
}

void Histogram::Record(uint64_t value) {
  int bucket = 0;
  while (bucket + 1 < num_buckets_ &&
         (uint64_t{1} << (bucket + 1)) <= value)
    ++bucket;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < value && !max_.compare_exchange_weak(
                             prev, value, std::memory_order_relaxed)) {
  }
}

double Histogram::Snapshot::PercentileUpperBound(double q) const {
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= target)
      return static_cast<double>(uint64_t{1} << (i + 1));
  }
  return static_cast<double>(uint64_t{1} << buckets.size());
}

double Histogram::Snapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < target) continue;
    // Bucket i covers [2^i, 2^{i+1}), except bucket 0 which also absorbs 0
    // and the last bucket which is open-ended; interpolate linearly inside
    // it, treating the observed max as the top edge of the last bucket.
    const double lower = i == 0 ? 0.0 : static_cast<double>(uint64_t{1} << i);
    double upper = static_cast<double>(uint64_t{1} << (i + 1));
    if (i + 1 == buckets.size())
      upper = std::max(lower, static_cast<double>(max));
    const double frac =
        (target - before) / static_cast<double>(buckets[i]);
    const double estimate = lower + frac * (upper - lower);
    return std::min(estimate, static_cast<double>(max));
  }
  return static_cast<double>(max);
}

std::string Histogram::Snapshot::ToJson() const {
  return StrFormat(
      "{\"count\": %llu, \"mean\": %.3f, \"p50\": %.1f, \"p90\": %.1f, "
      "\"p95\": %.1f, \"p99\": %.1f, \"max\": %llu}",
      static_cast<unsigned long long>(count), mean, Percentile(0.50),
      Percentile(0.90), Percentile(0.95), Percentile(0.99),
      static_cast<unsigned long long>(max));
}

void Histogram::MergeFrom(const Snapshot& snapshot) {
  for (size_t i = 0; i < snapshot.buckets.size(); ++i) {
    if (snapshot.buckets[i] == 0) continue;
    const size_t bucket =
        std::min(i, static_cast<size_t>(num_buckets_ - 1));
    buckets_[bucket].fetch_add(snapshot.buckets[i],
                               std::memory_order_relaxed);
  }
  sum_.fetch_add(snapshot.sum, std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < snapshot.max &&
         !max_.compare_exchange_weak(prev, snapshot.max,
                                     std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snap;
  snap.buckets.resize(static_cast<size_t>(num_buckets_));
  for (int i = 0; i < num_buckets_; ++i) {
    snap.buckets[static_cast<size_t>(i)] =
        buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.buckets[static_cast<size_t>(i)];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  snap.mean = snap.count == 0 ? 0.0
                              : static_cast<double>(snap.sum) /
                                    static_cast<double>(snap.count);
  return snap;
}

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  CASCN_CHECK(name.find('\0') == std::string::npos)
      << "metric name contains embedded NUL";
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  CASCN_CHECK(name.find('\0') == std::string::npos)
      << "metric name contains embedded NUL";
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         int num_buckets) {
  CASCN_CHECK(name.find('\0') == std::string::npos)
      << "metric name contains embedded NUL";
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(num_buckets);
  return *slot;
}

void MetricsRegistry::ExportTo(MetricsRegistry& dest) const {
  // Snapshot under our lock, write into `dest` unlocked: never holding two
  // registry mutexes at once makes lock inversion impossible no matter how
  // exporters chain registries together.
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::tuple<std::string, int, Histogram::Snapshot>> histograms;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, counter] : counters_)
      counters.emplace_back(name, counter->value());
    for (const auto& [name, gauge] : gauges_)
      gauges.emplace_back(name, gauge->value());
    for (const auto& [name, histogram] : histograms_)
      histograms.emplace_back(name, histogram->num_buckets(),
                              histogram->TakeSnapshot());
  }
  for (const auto& [name, value] : counters)
    dest.GetCounter(name).Increment(value);
  for (const auto& [name, value] : gauges) dest.GetGauge(name).Set(value);
  for (const auto& [name, num_buckets, snapshot] : histograms)
    dest.GetHistogram(name, num_buckets).MergeFrom(snapshot);
}

std::string MetricsRegistry::TextSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  // string_views into map keys: stable for the duration of the snapshot.
  std::set<std::string_view> seen_families;
  for (const auto& [name, counter] : counters_) {
    EmitFamilyHeader(out, name, "counter", "Monotonic event count.",
                     seen_families);
    out << TextEscapeName(name) << " = " << counter->value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    EmitFamilyHeader(out, name, "gauge", "Point-in-time value.",
                     seen_families);
    out << TextEscapeName(name) << " = " << StrFormat("%.6g", gauge->value())
        << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    EmitFamilyHeader(out, name, "histogram",
                     "Log2-bucketed distribution (native units).",
                     seen_families);
    const Histogram::Snapshot snap = histogram->TakeSnapshot();
    out << TextEscapeName(name)
        << StrFormat(
               ": n=%llu mean=%.1f p50~%.0f p90~%.0f p95~%.0f p99~%.0f "
               "max=%llu\n",
               static_cast<unsigned long long>(snap.count), snap.mean,
               snap.Percentile(0.50), snap.Percentile(0.90),
               snap.Percentile(0.95), snap.Percentile(0.99),
               static_cast<unsigned long long>(snap.max));
  }
  return out.str();
}

std::string MetricsRegistry::JsonSnapshot() const {
  // Names built with EscapeLabelValue hold quotes and backslashes by
  // construction, so every name is JSON-escaped again.
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << JsonEscape(name) << "\": " << counter->value();
  }
  out << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << JsonEscape(name)
        << "\": " << StrFormat("%.6g", gauge->value());
  }
  out << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << JsonEscape(name)
        << "\": " << histogram->TakeSnapshot().ToJson();
  }
  out << "}}";
  return out.str();
}

}  // namespace cascn::obs

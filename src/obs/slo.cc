#include "obs/slo.h"

#include <algorithm>

#include "common/string_util.h"
#include "obs/metrics_registry.h"

namespace cascn::obs {

SloTracker::SloTracker(SloOptions options) : options_([&] {
        // Degenerate windows would divide by zero in the ring arithmetic.
        options.fast_window_seconds = std::max(1, options.fast_window_seconds);
        options.slow_window_seconds =
            std::max(options.fast_window_seconds, options.slow_window_seconds);
        return options;
      }()) {}

void SloTracker::RecordRequest(std::string_view tenant, TimePoint now,
                               bool ok, uint64_t latency_us) {
  const bool good =
      ok && (options_.latency_slo_us == 0 ||
             latency_us <= options_.latency_slo_us);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end())
    it = tenants_.emplace(std::string(tenant),
                          OutcomeWindow(options_.slow_window_seconds))
             .first;
  it->second.Record(now, good);
}

TenantSli SloTracker::MakeSli(const std::string& tenant,
                              const OutcomeWindow& window,
                              TimePoint now) const {
  const OutcomeWindow::Counts fast =
      window.Sum(now, options_.fast_window_seconds);
  const OutcomeWindow::Counts slow =
      window.Sum(now, options_.slow_window_seconds);
  const double budget = 1.0 - kSloAvailabilityTarget;

  TenantSli sli;
  sli.tenant = tenant;
  sli.fast_total = fast.total;
  sli.fast_good = fast.good;
  sli.slow_total = slow.total;
  sli.slow_good = slow.good;
  if (fast.total > 0)
    sli.fast_availability =
        static_cast<double>(fast.good) / static_cast<double>(fast.total);
  if (slow.total > 0)
    sli.slow_availability =
        static_cast<double>(slow.good) / static_cast<double>(slow.total);
  sli.fast_burn = (1.0 - sli.fast_availability) / budget;
  sli.slow_burn = (1.0 - sli.slow_availability) / budget;
  sli.burning = sli.fast_burn > kSloFastBurnThreshold &&
                sli.slow_burn > kSloSlowBurnThreshold;
  return sli;
}

std::vector<TenantSli> SloTracker::Snapshot(TimePoint now) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TenantSli> slis;
  slis.reserve(tenants_.size());
  for (const auto& [tenant, window] : tenants_)
    slis.push_back(MakeSli(tenant, window, now));
  return slis;
}

bool SloTracker::AnyTenantBurning(TimePoint now) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [tenant, window] : tenants_)
    if (MakeSli(tenant, window, now).burning) return true;
  return false;
}

void SloTracker::ExportToRegistry(MetricsRegistry& registry,
                                  TimePoint now) const {
  for (const TenantSli& sli : Snapshot(now)) {
    const std::string label =
        StrFormat("{tenant=\"%s\"}", EscapeLabelValue(sli.tenant).c_str());
    registry.GetGauge("slo_fast_burn" + label).Set(sli.fast_burn);
    registry.GetGauge("slo_slow_burn" + label).Set(sli.slow_burn);
    registry.GetGauge("slo_fast_availability" + label)
        .Set(sli.fast_availability);
    registry.GetGauge("slo_slow_availability" + label)
        .Set(sli.slow_availability);
    registry.GetGauge("slo_burning" + label).Set(sli.burning ? 1.0 : 0.0);
  }
}

}  // namespace cascn::obs

// Per-tenant SLI tracking with multi-window error-budget burn rates.
//
// The serving tier promises each tenant an availability/latency SLO: 99.9%
// of requests succeed (kSloAvailabilityTarget), optionally within a latency
// bound. The SloTracker turns the stream of per-request outcomes into the
// two numbers an operator pages on:
//
//   burn rate = observed error rate / error budget (1 - availability target)
//
// computed over a FAST window (default 60 s — catches a sudden outage) and
// a SLOW window (default 30 min — filters one-off blips). A tenant is
// "burning" only when BOTH windows exceed their thresholds (fast 14,
// slow 1): the fast window must confirm the problem is happening *now*, the
// slow window that it has been going on long enough to matter. This is the
// standard multi-window multi-burn-rate alerting shape (SRE workbook ch. 5),
// applied here to degrade ClusterHealth before tenants experience hard
// failure.
//
// Time is always injected: every entry point takes an explicit
// steady_clock::time_point, so tests can replay hours of traffic in
// microseconds and assert exact burn transitions. Internally each tenant
// counts in one OutcomeWindow (obs/outcome_window.h) sized to the slow
// window; memory is O(tenants * slow_window_seconds) and recording is O(1).

#ifndef CASCN_OBS_SLO_H_
#define CASCN_OBS_SLO_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/outcome_window.h"

namespace cascn::obs {

class MetricsRegistry;

/// Fraction of requests that must be "good" (ok status AND within the
/// latency threshold). The error budget is 1 - kSloAvailabilityTarget.
inline constexpr double kSloAvailabilityTarget = 0.999;
/// Burn-rate thresholds; both windows must exceed theirs to flag a tenant.
/// They correspond to "exhausting a 30-day budget in ~2 days" style paging:
/// fast confirms immediacy, slow persistence.
inline constexpr double kSloFastBurnThreshold = 14.0;
inline constexpr double kSloSlowBurnThreshold = 1.0;

struct SloOptions {
  /// A successful request slower than this still violates the SLI. 0
  /// disables the latency component (availability only).
  uint64_t latency_slo_us = 0;  // knob: switch
  int fast_window_seconds = 60;
  int slow_window_seconds = 1800;
};

/// One tenant's SLI snapshot at a point in time.
struct TenantSli {
  std::string tenant;
  uint64_t fast_total = 0;
  uint64_t fast_good = 0;
  uint64_t slow_total = 0;
  uint64_t slow_good = 0;
  double fast_availability = 1.0;
  double slow_availability = 1.0;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  /// True when both windows' burn rates exceed their thresholds
  /// (kSloFastBurnThreshold, kSloSlowBurnThreshold).
  bool burning = false;
};

/// Rolling-window per-tenant SLI/burn-rate tracker. Thread-safe.
class SloTracker {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit SloTracker(SloOptions options = {});

  const SloOptions& options() const { return options_; }

  /// Records one terminal request outcome for `tenant` at time `now`.
  /// `ok` is whether the request succeeded; a success slower than
  /// latency_slo_us (when set) still counts against the SLI.
  void RecordRequest(std::string_view tenant, TimePoint now, bool ok,
                     uint64_t latency_us);

  /// Current SLIs for every tenant ever recorded, sorted by tenant name.
  std::vector<TenantSli> Snapshot(TimePoint now) const;

  /// True when any tenant is burning at `now` (see TenantSli::burning).
  bool AnyTenantBurning(TimePoint now) const;

  /// Exports per-tenant gauges: slo_fast_burn{tenant=...},
  /// slo_slow_burn{tenant=...}, slo_fast_availability{tenant=...},
  /// slo_slow_availability{tenant=...}, slo_burning{tenant=...} (0/1).
  /// Tenant labels are escaped via EscapeLabelValue.
  void ExportToRegistry(MetricsRegistry& registry, TimePoint now) const;

 private:
  TenantSli MakeSli(const std::string& tenant, const OutcomeWindow& window,
                    TimePoint now) const;

  const SloOptions options_;
  mutable std::mutex mutex_;
  std::map<std::string, OutcomeWindow, std::less<>> tenants_;
};

}  // namespace cascn::obs

#endif  // CASCN_OBS_SLO_H_

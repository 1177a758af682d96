#include "obs/slo.h"

#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics_registry.h"

namespace cascn::obs {
namespace {

using std::chrono::seconds;

// A fixed, arbitrary origin well past zero so window subtraction never goes
// negative. Tests advance from here deterministically.
SloTracker::TimePoint T0() {
  return SloTracker::TimePoint(std::chrono::seconds(1'000'000));
}

// Error budget 0.1% (kSloAvailabilityTarget 0.999); burn thresholds fast 14,
// slow 1.
SloOptions TestOptions() {
  SloOptions opts;
  opts.latency_slo_us = 0;
  opts.fast_window_seconds = 60;
  opts.slow_window_seconds = 600;
  return opts;
}

const TenantSli* FindTenant(const std::vector<TenantSli>& slis,
                            const std::string& tenant) {
  for (const TenantSli& sli : slis)
    if (sli.tenant == tenant) return &sli;
  return nullptr;
}

TEST(SloTrackerTest, AllGoodTrafficHasZeroBurn) {
  SloTracker tracker(TestOptions());
  const auto now = T0();
  for (int s = 0; s < 120; ++s)
    for (int i = 0; i < 10; ++i)
      tracker.RecordRequest("acme", now + seconds(s), /*ok=*/true, 100);
  const auto slis = tracker.Snapshot(now + seconds(120));
  ASSERT_EQ(slis.size(), 1u);
  EXPECT_EQ(slis[0].tenant, "acme");
  EXPECT_DOUBLE_EQ(slis[0].fast_availability, 1.0);
  EXPECT_DOUBLE_EQ(slis[0].slow_availability, 1.0);
  EXPECT_DOUBLE_EQ(slis[0].fast_burn, 0.0);
  EXPECT_DOUBLE_EQ(slis[0].slow_burn, 0.0);
  EXPECT_FALSE(slis[0].burning);
  EXPECT_FALSE(tracker.AnyTenantBurning(now + seconds(120)));
}

TEST(SloTrackerTest, TenantWithNoRecentTrafficIsNotBurning) {
  SloTracker tracker(TestOptions());
  tracker.RecordRequest("acme", T0(), /*ok=*/false, 100);
  // Far beyond the slow window: every bucket has expired.
  const auto later = T0() + seconds(10'000);
  const auto slis = tracker.Snapshot(later);
  ASSERT_EQ(slis.size(), 1u);
  EXPECT_EQ(slis[0].fast_total, 0u);
  EXPECT_EQ(slis[0].slow_total, 0u);
  EXPECT_DOUBLE_EQ(slis[0].fast_availability, 1.0);
  EXPECT_DOUBLE_EQ(slis[0].slow_availability, 1.0);
  EXPECT_FALSE(slis[0].burning);
}

TEST(SloTrackerTest, FastSpikeAloneDoesNotPage) {
  SloTracker tracker(TestOptions());
  const auto now = T0();
  // Heavy clean traffic fills the slow window with good samples (51,000)…
  for (int s = 0; s < 510; ++s)
    for (int i = 0; i < 100; ++i)
      tracker.RecordRequest("acme", now + seconds(s), true, 100);
  // …then a brief trickle of pure failures (30 bad): the fast window sees
  // only errors so its burn explodes, but against the slow window's volume
  // the error rate stays inside budget (30/51030 < 0.1%) — NOT flagged.
  for (int s = 540; s < 570; ++s)
    tracker.RecordRequest("acme", now + seconds(s), false, 100);
  const auto at = now + seconds(570);
  const auto slis = tracker.Snapshot(at);
  ASSERT_EQ(slis.size(), 1u);
  EXPECT_GT(slis[0].fast_burn, 14.0);
  EXPECT_LT(slis[0].slow_burn, 1.0) << "slow window should dilute the spike";
  EXPECT_FALSE(slis[0].burning);
  EXPECT_FALSE(tracker.AnyTenantBurning(at));
}

TEST(SloTrackerTest, SustainedErrorsAcrossBothWindowsBurn) {
  SloTracker tracker(TestOptions());
  const auto now = T0();
  // Ten minutes of 50% errors: both windows far exceed their thresholds
  // (error rate 0.5 / budget 0.001 = burn 500).
  for (int s = 0; s < 600; ++s)
    for (int i = 0; i < 10; ++i)
      tracker.RecordRequest("acme", now + seconds(s), /*ok=*/(i % 2 == 0),
                            100);
  const auto at = now + seconds(600);
  const auto slis = tracker.Snapshot(at);
  ASSERT_EQ(slis.size(), 1u);
  EXPECT_NEAR(slis[0].fast_availability, 0.5, 1e-9);
  EXPECT_NEAR(slis[0].slow_availability, 0.5, 1e-9);
  EXPECT_GT(slis[0].fast_burn, 14.0);
  EXPECT_GT(slis[0].slow_burn, 1.0);
  EXPECT_TRUE(slis[0].burning);
  EXPECT_TRUE(tracker.AnyTenantBurning(at));
}

TEST(SloTrackerTest, SlowSuccessesViolateLatencySlo) {
  SloOptions opts = TestOptions();
  opts.latency_slo_us = 50'000;  // 50 ms
  SloTracker tracker(opts);
  const auto now = T0();
  tracker.RecordRequest("acme", now, /*ok=*/true, 10'000);   // good
  tracker.RecordRequest("acme", now, /*ok=*/true, 200'000);  // too slow: bad
  tracker.RecordRequest("acme", now, /*ok=*/false, 1'000);   // failed: bad
  const auto slis = tracker.Snapshot(now + seconds(1));
  ASSERT_EQ(slis.size(), 1u);
  EXPECT_EQ(slis[0].fast_total, 3u);
  EXPECT_EQ(slis[0].fast_good, 1u);
}

TEST(SloTrackerTest, BurningTenantDoesNotTaintOthers) {
  SloTracker tracker(TestOptions());
  const auto now = T0();
  for (int s = 0; s < 600; ++s) {
    tracker.RecordRequest("noisy", now + seconds(s), /*ok=*/false, 100);
    tracker.RecordRequest("calm", now + seconds(s), /*ok=*/true, 100);
  }
  const auto at = now + seconds(600);
  const auto slis = tracker.Snapshot(at);
  const TenantSli* noisy = FindTenant(slis, "noisy");
  const TenantSli* calm = FindTenant(slis, "calm");
  ASSERT_NE(noisy, nullptr);
  ASSERT_NE(calm, nullptr);
  EXPECT_TRUE(noisy->burning);
  EXPECT_FALSE(calm->burning);
  EXPECT_DOUBLE_EQ(calm->fast_burn, 0.0);
  EXPECT_TRUE(tracker.AnyTenantBurning(at));
}

TEST(SloTrackerTest, OldBucketsExpireAsTimeAdvances) {
  SloTracker tracker(TestOptions());
  const auto now = T0();
  for (int s = 0; s < 600; ++s)
    tracker.RecordRequest("acme", now + seconds(s), /*ok=*/false, 100);
  ASSERT_TRUE(tracker.AnyTenantBurning(now + seconds(600)));
  // One slow-window later with no traffic, the burn has fully decayed.
  const auto later = now + seconds(600 + 601);
  const auto slis = tracker.Snapshot(later);
  ASSERT_EQ(slis.size(), 1u);
  EXPECT_EQ(slis[0].slow_total, 0u);
  EXPECT_FALSE(slis[0].burning);
  EXPECT_FALSE(tracker.AnyTenantBurning(later));
}

TEST(SloTrackerTest, ExportToRegistryEmitsLabeledGauges) {
  SloTracker tracker(TestOptions());
  const auto now = T0();
  for (int s = 0; s < 600; ++s)
    tracker.RecordRequest("acme", now + seconds(s), /*ok=*/false, 100);
  MetricsRegistry& registry = MetricsRegistry::Get();
  tracker.ExportToRegistry(registry, now + seconds(600));
  EXPECT_GT(registry.GetGauge("slo_fast_burn{tenant=\"acme\"}").value(),
            14.0);
  EXPECT_GT(registry.GetGauge("slo_slow_burn{tenant=\"acme\"}").value(), 1.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("slo_fast_availability{tenant=\"acme\"}").value(),
      0.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("slo_burning{tenant=\"acme\"}").value(), 1.0);
}

TEST(SloTrackerTest, ExportEscapesHostileTenantLabels) {
  SloTracker tracker(TestOptions());
  tracker.RecordRequest("bad\"guy", T0(), /*ok=*/true, 100);
  MetricsRegistry& registry = MetricsRegistry::Get();
  tracker.ExportToRegistry(registry, T0() + seconds(1));
  // The quote inside the tenant name is escaped inside the label value, so
  // the metric name remains unambiguous.
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("slo_burning{tenant=\"bad\\\"guy\"}").value(), 0.0);
}

TEST(SloTrackerTest, WindowsClampToSaneMinimums) {
  SloOptions opts;
  opts.fast_window_seconds = 0;
  opts.slow_window_seconds = -5;
  SloTracker tracker(opts);
  EXPECT_GE(tracker.options().fast_window_seconds, 1);
  EXPECT_GE(tracker.options().slow_window_seconds,
            tracker.options().fast_window_seconds);
  // Still functional after clamping.
  tracker.RecordRequest("t", T0(), true, 1);
  EXPECT_EQ(tracker.Snapshot(T0()).size(), 1u);
}

}  // namespace
}  // namespace cascn::obs

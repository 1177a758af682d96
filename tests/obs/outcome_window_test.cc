#include "obs/outcome_window.h"

#include <chrono>

#include <gtest/gtest.h>

namespace cascn::obs {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

OutcomeWindow::TimePoint T0() {
  return OutcomeWindow::TimePoint(seconds(1'000'000));
}

TEST(OutcomeWindowTest, CountsTotalsAndGoodPerWindow) {
  OutcomeWindow window(10);
  window.Record(T0(), /*good=*/true);
  window.Record(T0() + milliseconds(999), /*good=*/false);
  window.Record(T0() + seconds(3), /*good=*/true);
  const OutcomeWindow::Counts all = window.Sum(T0() + seconds(3), 10);
  EXPECT_EQ(all.total, 3u);
  EXPECT_EQ(all.good, 2u);
  // A narrower window over the same ring sees only the last second.
  const OutcomeWindow::Counts last = window.Sum(T0() + seconds(3), 1);
  EXPECT_EQ(last.total, 1u);
  EXPECT_EQ(last.good, 1u);
}

TEST(OutcomeWindowTest, BucketAtNowMinusWindowIsExcluded) {
  OutcomeWindow window(10);
  window.Record(T0(), /*good=*/false);
  window.Record(T0() + seconds(1), /*good=*/true);
  // (now - 10, now] at now = T0 + 9 still holds T0's second...
  EXPECT_EQ(window.Sum(T0() + seconds(9), 10).total, 2u);
  // ...and at now = T0 + 10 that second is exactly now - window: out.
  const OutcomeWindow::Counts sums = window.Sum(T0() + seconds(10), 10);
  EXPECT_EQ(sums.total, 1u);
  EXPECT_EQ(sums.good, 1u);
  // The ring reuses T0's slot for T0 + 10, resetting it in place.
  window.Record(T0() + seconds(10), /*good=*/true);
  EXPECT_EQ(window.Sum(T0() + seconds(10), 10).total, 2u);
  EXPECT_EQ(window.Sum(T0() + seconds(10), 10).good, 2u);
}

TEST(OutcomeWindowTest, FutureSecondIsIgnored) {
  OutcomeWindow window(10);
  window.Record(T0() + seconds(5), /*good=*/false);
  EXPECT_EQ(window.Sum(T0(), 10).total, 0u);
  EXPECT_EQ(window.Sum(T0() + seconds(4), 10).total, 0u);
  EXPECT_EQ(window.Sum(T0() + seconds(5), 10).total, 1u);
}

TEST(OutcomeWindowTest, ClearForgetsEveryOutcome) {
  OutcomeWindow window(4);
  for (int s = 0; s < 4; ++s) window.Record(T0() + seconds(s), s % 2 == 0);
  ASSERT_EQ(window.Sum(T0() + seconds(3), 4).total, 4u);
  window.Clear();
  EXPECT_EQ(window.Sum(T0() + seconds(3), 4).total, 0u);
  EXPECT_EQ(window.Sum(T0() + seconds(3), 4).good, 0u);
  window.Record(T0() + seconds(3), /*good=*/true);
  EXPECT_EQ(window.Sum(T0() + seconds(3), 4).total, 1u);
}

}  // namespace
}  // namespace cascn::obs

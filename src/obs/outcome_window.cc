#include "obs/outcome_window.h"

#include <algorithm>

namespace cascn::obs {

namespace {

int64_t SecondOf(OutcomeWindow::TimePoint t) {
  return std::chrono::duration_cast<std::chrono::seconds>(t.time_since_epoch())
      .count();
}

}  // namespace

OutcomeWindow::OutcomeWindow(int slots)
    : ring_(static_cast<size_t>(std::max(1, slots))) {}

void OutcomeWindow::Record(TimePoint now, bool good) {
  const int64_t second = SecondOf(now);
  const auto size = static_cast<int64_t>(ring_.size());
  Bucket& bucket = ring_[static_cast<size_t>(((second % size) + size) % size)];
  if (bucket.second != second) bucket = Bucket{second, {}};
  bucket.counts.total += 1;
  if (good) bucket.counts.good += 1;
}

OutcomeWindow::Counts OutcomeWindow::Sum(TimePoint now, int seconds) const {
  const int64_t last = SecondOf(now);
  Counts sums;
  for (const Bucket& bucket : ring_) {
    if (bucket.second > last || bucket.second <= last - seconds) continue;
    sums.total += bucket.counts.total;
    sums.good += bucket.counts.good;
  }
  return sums;
}

void OutcomeWindow::Clear() { std::fill(ring_.begin(), ring_.end(), Bucket{}); }

}  // namespace cascn::obs

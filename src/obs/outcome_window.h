// OutcomeWindow: per-second counts of request outcomes over a rolling
// window. The one window type the SLO tracker (obs/slo.h) and the
// cluster's circuit breakers (cluster/resilience.h) count in.
//
// A ring of one-second buckets, slot = second mod slots. Recording is O(1):
// a slot that still holds an older second is reset in place. A sum over the
// last w <= slots seconds reads the buckets whose second lies in
// (now - w, now]; a bucket for a second after `now` is ignored. Time is
// passed in, so the window replays identically under a test clock. Not
// thread-safe: each owner guards its window with its own mutex.

#ifndef CASCN_OBS_OUTCOME_WINDOW_H_
#define CASCN_OBS_OUTCOME_WINDOW_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

namespace cascn::obs {

class OutcomeWindow {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  struct Counts {
    uint64_t total = 0;
    uint64_t good = 0;
  };

  /// Keeps `slots` (>= 1) seconds of history: the widest window Sum reads.
  explicit OutcomeWindow(int slots);

  /// Counts one outcome in the bucket of the second `now` falls in.
  void Record(TimePoint now, bool good);
  /// Totals over the last `seconds` seconds, ending with `now`'s second.
  Counts Sum(TimePoint now, int seconds) const;
  /// Forgets every outcome.
  void Clear();

 private:
  struct Bucket {
    int64_t second = std::numeric_limits<int64_t>::min();
    Counts counts;
  };

  std::vector<Bucket> ring_;
};

}  // namespace cascn::obs

#endif  // CASCN_OBS_OUTCOME_WINDOW_H_

// LiveCascade: one cascade observed while it grows, the state behind the
// paper's future-work item 2 (an online forecast that takes each adoption
// as it arrives).
//
// It owns the events, the one rule that admits an adoption, the blob codec
// that moves a live cascade between shards, the sample the model reads and
// the cached forecast. Parse() replays a blob's events through Append(), so
// a blob passes exactly the checks a live append does; the sample is
// rebuilt (in place) and the forecast recomputed only after the cascade
// changed.
//
// Not thread-safe: SessionManager guards each one with its session mutex.

#ifndef CASCN_SERVE_LIVE_CASCADE_H_
#define CASCN_SERVE_LIVE_CASCADE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/regressor.h"
#include "data/dataset.h"
#include "graph/cascade.h"

namespace cascn::serve {

class LiveCascade {
 public:
  /// Starts a cascade: the root post by `root_user` at time 0. Adoptions
  /// after `observation_window` (> 0) are rejected.
  LiveCascade(int root_user, double observation_window);

  /// Appends one adoption under the existing node `parent_node`.
  /// InvalidArgument if the parent is unknown or the time is not finite or
  /// earlier than the last adoption; OutOfRange if the time falls outside
  /// the observation window. A rejected append changes nothing.
  Status Append(int user, int parent_node, double time);

  /// Number of adoptions, root included.
  int size() const { return static_cast<int>(events_.size()); }
  const std::vector<AdoptionEvent>& events() const { return events_; }

  /// The events as a sealed frame (common/sealed_frame.h): magic, version,
  /// events, CRC-32.
  std::string Serialize() const;

  /// Rebuilds a cascade from a Serialize() blob. IoError for a torn or
  /// corrupt blob (bad length or CRC); InvalidArgument for a sealed blob
  /// of another magic or version, or when its events are not what Append()
  /// would have built within `observation_window`.
  static Result<LiveCascade> Parse(const std::string& blob,
                                   double observation_window);

  /// `model`'s forecast of log2(1 + future increment) for the cascade as
  /// observed so far, cached until the next append.
  Result<double> Predict(CascadeRegressor& model);

  bool has_cached_prediction() const { return cached_prediction_.has_value(); }

 private:
  std::vector<AdoptionEvent> events_;
  double observation_window_;
  // Rebuilt in place when stale. Its cascade id is always "session", so a
  // forecast depends on the events alone.
  CascadeSample sample_;
  bool sample_stale_ = true;
  std::optional<double> cached_prediction_;
};

}  // namespace cascn::serve

#endif  // CASCN_SERVE_LIVE_CASCADE_H_

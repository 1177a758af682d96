// SessionManager: a keyed table of live cascades (LiveCascade), one per
// session.
//
// Each session is one evolving cascade: Create() starts it with the root
// post, Append() adds adoptions (under LiveCascade's append rule),
// PredictLog() runs a model over the cascade as observed so far, Close()
// ends it. Sessions are independently locked, so operations on different
// sessions proceed in parallel; the table itself is guarded by a separate
// mutex held only for map/LRU bookkeeping, never across a model forward
// pass.
//
// Capacity: at most `options.capacity` live sessions. Creating one more
// evicts the least-recently-used *idle* session (idle = no operation
// currently inside it); if every session is busy, Create returns
// Unavailable rather than blocking.
//
// Spill (options.spill_capacity > 0): an evicted session's event history is
// kept as a serialized blob instead of being dropped, and the next
// operation that touches the session transparently restores it — so a
// client that never noticed the eviction keeps its cascade history instead
// of silently losing it. Create() on a spilled id discards the blob (an
// explicit re-create is a new cascade).
//
// Moving: Serialize()/Deserialize() export one session's full history as
// LiveCascade's self-validating binary blob and rebuild it elsewhere — the
// unit the cluster layer moves between its in-process shards, in memory,
// during a rebalance. Extract() is the remove-and-serialize variant the
// move uses on the source shard.

#ifndef CASCN_SERVE_SESSION_MANAGER_H_
#define CASCN_SERVE_SESSION_MANAGER_H_

#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/regressor.h"
#include "serve/live_cascade.h"
#include "serve/metrics.h"

namespace cascn::serve {

struct SessionManagerOptions {
  /// Maximum live sessions (>= 1).
  size_t capacity = 4096;
  /// Observation window for every session, in the dataset's native time
  /// unit; adoptions after the window are rejected (OutOfRange).
  double observation_window = 60.0;
  /// Evicted sessions to retain as serialized blobs (0 disables). Spilled
  /// sessions are restored transparently by the next operation that touches
  /// them; the spill table is itself LRU-bounded. When live + spilled
  /// sessions exceed capacity + spill_capacity, the oldest spilled history
  /// is discarded — counted as kSpillDropped, logged, and reported through
  /// `on_spill_drop`.
  size_t spill_capacity = 0;
  /// Invoked with the session id whenever a spilled history is discarded by
  /// the bounded spill LRU (capacity-driven session loss). Called with the
  /// session-table lock held: the callback must be cheap and must not call
  /// back into this SessionManager. The cluster router uses it to release
  /// the dropped session's routing pin.
  std::function<void(const std::string&)> on_spill_drop;
};

/// Thread-safe table of live cascade sessions.
class SessionManager {
 public:
  /// `metrics` may be null (no recording); otherwise it must outlive the
  /// manager.
  explicit SessionManager(const SessionManagerOptions& options,
                          ServeMetrics* metrics = nullptr);

  /// Starts a session whose cascade is the root post by `root_user` at time
  /// 0. Fails with InvalidArgument if `session_id` already exists, or
  /// Unavailable if the table is full of busy sessions.
  Status Create(const std::string& session_id, int root_user);

  /// Appends one adoption to the session's cascade. NotFound for unknown
  /// sessions; otherwise LiveCascade::Append's validation (finite monotone
  /// times, known parent, inside the window).
  Status Append(const std::string& session_id, int user, int parent_node,
                double time);

  /// The model's forecast of log2(1 + future increment) for the session's
  /// cascade as observed so far. The caller supplies the model so each
  /// service worker can use its own replica; results are cached per session
  /// until the next append (replicas of one checkpoint are
  /// interchangeable).
  Result<double> PredictLog(const std::string& session_id,
                            CascadeRegressor& model);

  /// Ends a session. NotFound if it does not exist.
  Status Close(const std::string& session_id);

  /// Drops every session's cached prediction. Called after a hot model
  /// reload: cached values were computed by the replaced replicas and must
  /// not be served against the new version.
  void InvalidateCachedPredictions();

  /// Number of adoptions observed by a session.
  Result<int> SessionSize(const std::string& session_id) const;

  /// Serializes a session's full event history into a self-validating
  /// binary blob (magic + version + events + CRC-32). NotFound for unknown
  /// sessions. Deserialize() on any SessionManager with the same
  /// observation window rebuilds an equivalent session.
  Result<std::string> Serialize(const std::string& session_id) const;

  /// Rebuilds a session from a Serialize() blob. InvalidArgument if the id
  /// already exists, the blob has another magic or version, or its events
  /// are not what appends could have built (LiveCascade::Parse); IoError
  /// for a torn or corrupt blob (bad CRC/length). Subject to the same
  /// capacity/eviction rules as Create().
  Status Deserialize(const std::string& session_id, const std::string& blob);

  /// Serialize() + remove in one step — the source side of a session move.
  /// Unavailable if an operation is currently inside the session.
  Result<std::string> Extract(const std::string& session_id);

  /// Ids of every session the manager holds state for — live sessions plus
  /// spilled ones (unspecified order). A shard drain iterates this and
  /// Extract()s each id, so spilled histories move too.
  std::vector<std::string> SessionIds() const;

  /// Live session count.
  size_t size() const;

  const SessionManagerOptions& options() const { return options_; }

 private:
  struct Session {
    explicit Session(LiveCascade c) : cascade(std::move(c)) {}
    std::mutex mutex;  // guards cascade
    LiveCascade cascade;
    int pins = 0;  // operations currently inside the session (eviction guard)
    std::list<std::string>::iterator lru_it;
  };

  /// Looks up + pins a session and moves it to the LRU front; restores a
  /// spilled session first when the spill table holds one. NotFound for
  /// unknown ids; Unavailable when a spilled session cannot be restored
  /// right now (table full of busy sessions — the blob is kept, so a retry
  /// can succeed).
  Result<std::shared_ptr<Session>> Acquire(const std::string& session_id) const;
  void Release(Session& session) const;
  /// Acquire + `fn(cascade)` under the session mutex + Release; returns
  /// fn's Status/Result, or Acquire's error.
  template <typename Fn>
  auto WithSession(const std::string& session_id, Fn fn) const
      -> decltype(fn(std::declval<LiveCascade&>()));
  void Record(Counter c, uint64_t n = 1) const {
    if (metrics_ != nullptr) metrics_->Increment(c, n);
  }

  /// Inserts a new session holding `cascade`, replacing any spilled
  /// history under the id. InvalidArgument if the id is live.
  Status Insert(const std::string& session_id, LiveCascade cascade);
  /// Inserts a prebuilt session. Pre: map_mutex_ held; id not present.
  /// Evicts (and possibly spills) the LRU idle session at capacity;
  /// Unavailable when every session is busy.
  Status InsertLocked(const std::string& session_id,
                      std::shared_ptr<Session> session) const;
  /// Drops `session_id` from the spill table if present. Pre: map_mutex_.
  void DropSpillLocked(const std::string& session_id) const;
  /// Stores `blob` as the most recently spilled history of `session_id`,
  /// replacing any earlier one; does not trim the table. Pre: map_mutex_.
  void PutSpillLocked(const std::string& session_id, std::string blob) const;

  SessionManagerOptions options_;
  ServeMetrics* metrics_;

  mutable std::mutex map_mutex_;
  mutable std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;
  mutable std::list<std::string> lru_;  // front = most recently used
  /// Serialized histories of evicted sessions (spill_capacity > 0 only).
  struct Spilled {
    std::string blob;
    std::list<std::string>::iterator lru_it;
  };
  mutable std::unordered_map<std::string, Spilled> spill_;
  mutable std::list<std::string> spill_lru_;  // front = most recently spilled
};

}  // namespace cascn::serve

#endif  // CASCN_SERVE_SESSION_MANAGER_H_

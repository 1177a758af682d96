#include "serve/session_manager.h"

#include "common/logging.h"
#include "obs/trace.h"

namespace cascn::serve {

SessionManager::SessionManager(const SessionManagerOptions& options,
                               ServeMetrics* metrics)
    : options_(options), metrics_(metrics) {
  CASCN_CHECK(options.capacity >= 1);
  CASCN_CHECK(options.observation_window > 0);
}

void SessionManager::DropSpillLocked(const std::string& session_id) const {
  auto it = spill_.find(session_id);
  if (it == spill_.end()) return;
  spill_lru_.erase(it->second.lru_it);
  spill_.erase(it);
}

void SessionManager::PutSpillLocked(const std::string& session_id,
                                    std::string blob) const {
  DropSpillLocked(session_id);
  spill_lru_.push_front(session_id);
  spill_.emplace(session_id, Spilled{std::move(blob), spill_lru_.begin()});
}

Status SessionManager::InsertLocked(
    const std::string& session_id, std::shared_ptr<Session> session) const {
  // Pre: map_mutex_ held, session_id not in sessions_.
  if (sessions_.size() >= options_.capacity) {
    // Evict the least-recently-used idle session. Iterating from the LRU
    // tail skips sessions with an operation in flight (pinned).
    CASCN_TRACE_SPAN("session_evict");
    bool evicted = false;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      auto candidate = sessions_.find(*it);
      CASCN_CHECK(candidate != sessions_.end());
      if (candidate->second->pins > 0) continue;
      if (options_.spill_capacity > 0) {
        // pins == 0 under map_mutex_ means no thread is inside the session
        // (and the releasing thread's writes are visible through the mutex),
        // so its cascade can be read without taking the session mutex —
        // which keeps session mutexes out of map_mutex_'s lock graph.
        PutSpillLocked(*it, candidate->second->cascade.Serialize());
        while (spill_.size() > options_.spill_capacity) {
          // Capacity-driven session loss: the oldest spilled history is
          // gone for good. Make it observable — operators otherwise have
          // no signal that the zero-loss story stopped holding.
          const std::string dropped = spill_lru_.back();
          spill_.erase(dropped);
          spill_lru_.pop_back();
          Record(Counter::kSpillDropped);
          CASCN_LOG(WARNING)
              << "spill table full (" << options_.spill_capacity
              << " blobs): discarding spilled history of session '" << dropped
              << "'";
          if (options_.on_spill_drop) options_.on_spill_drop(dropped);
        }
        Record(Counter::kSpilled);
      }
      lru_.erase(std::next(it).base());
      sessions_.erase(candidate);
      Record(Counter::kEvictions);
      evicted = true;
      break;
    }
    if (!evicted)
      return Status::Unavailable(
          "session table full and every session is busy");
  }
  lru_.push_front(session_id);
  session->lru_it = lru_.begin();
  sessions_.emplace(session_id, std::move(session));
  return Status::OK();
}

Result<std::shared_ptr<SessionManager::Session>> SessionManager::Acquire(
    const std::string& session_id) const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    // A spilled session is transparently restored: the caller keeps its
    // cascade history as if the eviction never happened.
    auto spilled = spill_.find(session_id);
    if (spilled == spill_.end())
      return Status::NotFound("unknown session: " + session_id);
    CASCN_ASSIGN_OR_RETURN(
        LiveCascade cascade,
        LiveCascade::Parse(spilled->second.blob, options_.observation_window));
    // Set the blob aside rather than discarding it: dropping it before the
    // insert keeps the restored id from LRU-evicting its own spill entry,
    // and putting it back on insert failure keeps the no-loss guarantee
    // (insert fails only when every live session is busy, so nothing was
    // evicted and the freed spill slot is still free).
    std::string blob = std::move(spilled->second.blob);
    DropSpillLocked(session_id);
    const Status inserted = InsertLocked(
        session_id, std::make_shared<Session>(std::move(cascade)));
    if (!inserted.ok()) {
      PutSpillLocked(session_id, std::move(blob));
      return inserted;  // Unavailable: transient, the history is intact
    }
    Record(Counter::kSpillRestores);
    it = sessions_.find(session_id);
    CASCN_CHECK(it != sessions_.end());
  }
  ++it->second->pins;
  lru_.splice(lru_.begin(), lru_, it->second->lru_it);
  return it->second;
}

void SessionManager::Release(Session& session) const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  --session.pins;
}

template <typename Fn>
auto SessionManager::WithSession(const std::string& session_id, Fn fn) const
    -> decltype(fn(std::declval<LiveCascade&>())) {
  CASCN_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                         Acquire(session_id));
  auto result = [&] {
    std::lock_guard<std::mutex> lock(session->mutex);
    return fn(session->cascade);
  }();
  Release(*session);
  return result;
}

Status SessionManager::Insert(const std::string& session_id,
                              LiveCascade cascade) {
  auto session = std::make_shared<Session>(std::move(cascade));
  std::lock_guard<std::mutex> lock(map_mutex_);
  if (sessions_.count(session_id) > 0)
    return Status::InvalidArgument("session already exists: " + session_id);
  // A new cascade under this id replaces the spilled history (if any): it
  // must not resurrect under it.
  DropSpillLocked(session_id);
  return InsertLocked(session_id, std::move(session));
}

Status SessionManager::Create(const std::string& session_id, int root_user) {
  CASCN_RETURN_IF_ERROR(Insert(
      session_id, LiveCascade(root_user, options_.observation_window)));
  Record(Counter::kSessionsCreated);
  return Status::OK();
}

Status SessionManager::Append(const std::string& session_id, int user,
                              int parent_node, double time) {
  return WithSession(session_id, [&](LiveCascade& cascade) {
    Status status = cascade.Append(user, parent_node, time);
    if (status.ok()) Record(Counter::kAppends);
    return status;
  });
}

Result<double> SessionManager::PredictLog(const std::string& session_id,
                                          CascadeRegressor& model) {
  return WithSession(session_id, [&](LiveCascade& cascade) {
    if (cascade.has_cached_prediction())
      Record(Counter::kPredictionCacheHits);
    Record(Counter::kPredictions);
    return cascade.Predict(model);
  });
}

Status SessionManager::Close(const std::string& session_id) {
  std::lock_guard<std::mutex> lock(map_mutex_);
  DropSpillLocked(session_id);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end())
    return Status::NotFound("unknown session: " + session_id);
  // An in-flight operation keeps the Session alive through its shared_ptr
  // and completes on the detached object.
  lru_.erase(it->second->lru_it);
  sessions_.erase(it);
  Record(Counter::kSessionsClosed);
  return Status::OK();
}

void SessionManager::InvalidateCachedPredictions() {
  // Collect under the map lock, reset under each session's own lock: no
  // path may hold a session mutex while taking map_mutex_, and this keeps
  // the inverse order out of the lock graph too.
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    sessions.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) sessions.push_back(session);
  }
  for (const auto& session : sessions) {
    std::lock_guard<std::mutex> lock(session->mutex);
    session->cascade.InvalidatePrediction();
  }
}

Result<int> SessionManager::SessionSize(const std::string& session_id) const {
  return WithSession(session_id, [](LiveCascade& cascade) {
    return Result<int>(cascade.size());
  });
}

Result<std::string> SessionManager::Serialize(
    const std::string& session_id) const {
  return WithSession(session_id, [](LiveCascade& cascade) {
    return Result<std::string>(cascade.Serialize());
  });
}

Status SessionManager::Deserialize(const std::string& session_id,
                                   const std::string& blob) {
  CASCN_ASSIGN_OR_RETURN(
      LiveCascade cascade,
      LiveCascade::Parse(blob, options_.observation_window));
  return Insert(session_id, std::move(cascade));
}

Result<std::string> SessionManager::Extract(const std::string& session_id) {
  std::lock_guard<std::mutex> lock(map_mutex_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    // A spilled session can be handed off directly: the blob format is the
    // same.
    auto spilled = spill_.find(session_id);
    if (spilled == spill_.end())
      return Status::NotFound("unknown session: " + session_id);
    std::string blob = std::move(spilled->second.blob);
    DropSpillLocked(session_id);
    return blob;
  }
  if (it->second->pins > 0)
    return Status::Unavailable("session is busy: " + session_id);
  // pins == 0 under map_mutex_: safe to read the cascade without the
  // session mutex (see InsertLocked).
  std::string blob = it->second->cascade.Serialize();
  lru_.erase(it->second->lru_it);
  sessions_.erase(it);
  DropSpillLocked(session_id);
  return blob;
}

std::vector<std::string> SessionManager::SessionIds() const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  std::vector<std::string> ids;
  ids.reserve(sessions_.size() + spill_.size());
  for (const auto& [id, session] : sessions_) ids.push_back(id);
  for (const auto& [id, spilled] : spill_) ids.push_back(id);
  return ids;
}

size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  return sessions_.size();
}

}  // namespace cascn::serve

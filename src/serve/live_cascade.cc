#include "serve/live_cascade.h"

#include <cmath>

#include "common/logging.h"
#include "common/sealed_frame.h"
#include "common/string_util.h"

namespace cascn::serve {

namespace {

// Blob layout, a sealed frame (common/sealed_frame.h):
//   uint32  magic 0x53455353 ("SESS")
//   uint32  version (kBlobVersion)
//   uint32  event count
//   per event: int32 node, int32 user, uint32 parent count, int32 parents...,
//              double time
//   uint32  CRC-32 of every preceding byte
constexpr uint32_t kBlobMagic = 0x53455353;
constexpr uint32_t kBlobVersion = 1;
constexpr size_t kMinEventBytes = 3 * sizeof(int32_t) + sizeof(double);

constexpr FrameFormat kBlobFormat = {
    .name = "session blob",
    .magic = kBlobMagic,
    .min_version = kBlobVersion,
    .max_version = kBlobVersion,
    .min_field_bytes = sizeof(uint32_t),  // the event count
};

Status ReadEvent(FrameReader& r, AdoptionEvent& e, uint32_t count) {
  int32_t node = 0, user = 0;
  CASCN_RETURN_IF_ERROR(r.Get(&node, "node"));
  CASCN_RETURN_IF_ERROR(r.Get(&user, "user"));
  e.node = node;
  e.user = user;
  uint32_t num_parents = 0;
  CASCN_RETURN_IF_ERROR(r.Get(&num_parents, "parent count"));
  if (num_parents > count)
    return r.Corrupt(StrFormat("implausible parent count %u", num_parents));
  e.parents.resize(num_parents);
  for (int& parent : e.parents) {
    int32_t p = 0;
    CASCN_RETURN_IF_ERROR(r.Get(&p, "parent"));
    parent = p;
  }
  return r.Get(&e.time, "time");
}

}  // namespace

LiveCascade::LiveCascade(int root_user, double observation_window)
    : observation_window_(observation_window) {
  CASCN_CHECK(observation_window > 0);
  AdoptionEvent root;
  root.node = 0;
  root.user = root_user;
  root.time = 0.0;
  events_.push_back(root);
}

Status LiveCascade::Append(int user, int parent_node, double time) {
  if (parent_node < 0 || parent_node >= size())
    return Status::InvalidArgument(
        StrFormat("unknown parent node %d", parent_node));
  if (!std::isfinite(time))
    return Status::InvalidArgument("adoption time must be finite");
  if (time < events_.back().time)
    return Status::InvalidArgument("adoption times must be non-decreasing");
  if (time > observation_window_)
    return Status::OutOfRange("adoption outside the observation window");
  AdoptionEvent e;
  e.node = size();
  e.user = user;
  e.parents.push_back(parent_node);
  e.time = time;
  events_.push_back(std::move(e));
  sample_stale_ = true;
  cached_prediction_.reset();
  return Status::OK();
}

std::string LiveCascade::Serialize() const {
  FrameWriter w(kBlobMagic, kBlobVersion);
  w.Put<uint32_t>(static_cast<uint32_t>(events_.size()));
  for (const AdoptionEvent& e : events_) {
    w.Put<int32_t>(e.node);
    w.Put<int32_t>(e.user);
    w.Put<uint32_t>(static_cast<uint32_t>(e.parents.size()));
    for (int parent : e.parents) w.Put<int32_t>(parent);
    w.Put(e.time);
  }
  return std::move(w).Seal();
}

Result<LiveCascade> LiveCascade::Parse(const std::string& blob,
                                       double observation_window) {
  CASCN_ASSIGN_OR_RETURN(FrameReader r, OpenFrame(blob, kBlobFormat, ""));
  uint32_t count = 0;
  CASCN_RETURN_IF_ERROR(r.Get(&count, "event count"));
  // Bounded by the bytes present, so a sealed blob cannot make the reserve
  // below allocate more than the blob could describe.
  if (count == 0 || count > r.remaining() / kMinEventBytes)
    return r.Corrupt(StrFormat("implausible event count %u", count));

  // Replay: the root starts the cascade, and every later event must be the
  // append that built it.
  AdoptionEvent e;
  CASCN_RETURN_IF_ERROR(ReadEvent(r, e, count));
  if (e.node != 0 || !e.parents.empty() || e.time != 0.0 ||
      std::signbit(e.time))
    return Status::InvalidArgument(
        "session blob root must be node 0 at time 0 with no parent");
  LiveCascade cascade(e.user, observation_window);
  cascade.events_.reserve(count);
  for (uint32_t i = 1; i < count; ++i) {
    CASCN_RETURN_IF_ERROR(ReadEvent(r, e, count));
    if (e.node != static_cast<int>(i) || e.parents.size() != 1)
      return Status::InvalidArgument(StrFormat(
          "session blob event %u is not node %u with one parent", i, i));
    const Status appended = cascade.Append(e.user, e.parents[0], e.time);
    if (!appended.ok())
      return Status::InvalidArgument(StrFormat(
          "session blob event %u: %s", i, appended.message().c_str()));
  }
  CASCN_RETURN_IF_ERROR(r.Finish());
  return cascade;
}

Result<double> LiveCascade::Predict(CascadeRegressor& model) {
  if (cached_prediction_.has_value()) return *cached_prediction_;
  if (sample_stale_) {
    CASCN_ASSIGN_OR_RETURN(sample_.observed,
                           Cascade::Create("session", events_));
    sample_.observation_window = observation_window_;
    sample_stale_ = false;
  }
  cached_prediction_ = model.PredictValue(sample_);
  return *cached_prediction_;
}

}  // namespace cascn::serve

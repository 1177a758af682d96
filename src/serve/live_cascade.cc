#include "serve/live_cascade.h"

#include <cmath>
#include <cstring>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace cascn::serve {

namespace {

// Blob layout (all little-endian, as written by the host):
//   uint32  magic 0x53455353 ("SESS")
//   uint32  version (kBlobVersion)
//   uint32  event count
//   per event: int32 node, int32 user, uint32 parent count, int32 parents...,
//              double time
//   uint32  CRC-32 of every preceding byte
constexpr uint32_t kBlobMagic = 0x53455353;
constexpr uint32_t kBlobVersion = 1;
constexpr size_t kBlobFrameBytes = 4 * sizeof(uint32_t);  // header + CRC
constexpr size_t kMinEventBytes = 3 * sizeof(int32_t) + sizeof(double);

void AppendRaw(std::string& out, const void* data, size_t len) {
  out.append(reinterpret_cast<const char*>(data), len);
}

void AppendU32(std::string& out, uint32_t v) { AppendRaw(out, &v, sizeof(v)); }
void AppendI32(std::string& out, int32_t v) { AppendRaw(out, &v, sizeof(v)); }
void AppendF64(std::string& out, double v) { AppendRaw(out, &v, sizeof(v)); }

/// Cursor over a blob; every read is bounds-checked so a truncated blob
/// fails with a Status instead of reading past the end.
struct BlobReader {
  const std::string& bytes;
  size_t pos = 0;

  Status Read(void* dst, size_t len, const char* what) {
    if (pos + len > bytes.size())
      return Status::IoError(
          StrFormat("session blob truncated reading %s", what));
    std::memcpy(dst, bytes.data() + pos, len);
    pos += len;
    return Status::OK();
  }

  Status ReadEvent(AdoptionEvent& e, uint32_t count) {
    int32_t node = 0, user = 0;
    CASCN_RETURN_IF_ERROR(Read(&node, sizeof(node), "node"));
    CASCN_RETURN_IF_ERROR(Read(&user, sizeof(user), "user"));
    e.node = node;
    e.user = user;
    uint32_t num_parents = 0;
    CASCN_RETURN_IF_ERROR(
        Read(&num_parents, sizeof(num_parents), "parent count"));
    if (num_parents > count)
      return Status::IoError(
          StrFormat("implausible parent count %u", num_parents));
    e.parents.resize(num_parents);
    for (int& parent : e.parents) {
      int32_t p = 0;
      CASCN_RETURN_IF_ERROR(Read(&p, sizeof(p), "parent"));
      parent = p;
    }
    return Read(&e.time, sizeof(e.time), "time");
  }
};

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
  std::string out;
  AppendU32(out, kBlobMagic);
  AppendU32(out, kBlobVersion);
  AppendU32(out, static_cast<uint32_t>(events_.size()));
  for (const AdoptionEvent& e : events_) {
    AppendI32(out, e.node);
    AppendI32(out, e.user);
    AppendU32(out, static_cast<uint32_t>(e.parents.size()));
    for (int parent : e.parents) AppendI32(out, parent);
    AppendF64(out, e.time);
  }
  const uint32_t crc = Crc32(out);
  AppendU32(out, crc);
  return out;
}

Result<LiveCascade> LiveCascade::Parse(const std::string& blob,
                                       double observation_window) {
  if (blob.size() < kBlobFrameBytes)
    return Status::IoError(StrFormat(
        "session blob of %zu bytes is too short", blob.size()));
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, blob.data() + blob.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  const uint32_t computed =
      Crc32(blob.data(), blob.size() - sizeof(stored_crc));
  if (stored_crc != computed)
    return Status::IoError(StrFormat(
        "session blob checksum mismatch (stored 0x%08x, computed 0x%08x): "
        "torn or corrupt blob",
        stored_crc, computed));

  BlobReader reader{blob};
  uint32_t magic = 0;
  CASCN_RETURN_IF_ERROR(reader.Read(&magic, sizeof(magic), "magic"));
  if (magic != kBlobMagic)
    return Status::IoError(
        StrFormat("not a session blob (magic 0x%08x)", magic));
  uint32_t version = 0;
  CASCN_RETURN_IF_ERROR(reader.Read(&version, sizeof(version), "version"));
  if (version != kBlobVersion)
    return Status::IoError(
        StrFormat("unsupported session blob version %u", version));
  uint32_t count = 0;
  CASCN_RETURN_IF_ERROR(reader.Read(&count, sizeof(count), "event count"));
  // Bounded by the bytes present, so a sealed blob cannot make the reserve
  // below allocate more than the blob could describe.
  if (count == 0 || count > (blob.size() - kBlobFrameBytes) / kMinEventBytes)
    return Status::IoError(
        StrFormat("implausible session blob event count %u", count));

  // Replay: the root starts the cascade, and every later event must be the
  // append that built it.
  AdoptionEvent e;
  CASCN_RETURN_IF_ERROR(reader.ReadEvent(e, count));
  if (e.node != 0 || !e.parents.empty() || e.time != 0.0 ||
      std::signbit(e.time))
    return Status::InvalidArgument(
        "session blob root must be node 0 at time 0 with no parent");
  LiveCascade cascade(e.user, observation_window);
  cascade.events_.reserve(count);
  for (uint32_t i = 1; i < count; ++i) {
    CASCN_RETURN_IF_ERROR(reader.ReadEvent(e, count));
    if (e.node != static_cast<int>(i) || e.parents.size() != 1)
      return Status::InvalidArgument(StrFormat(
          "session blob event %u is not node %u with one parent", i, i));
    const Status appended = cascade.Append(e.user, e.parents[0], e.time);
    if (!appended.ok())
      return Status::InvalidArgument(StrFormat(
          "session blob event %u: %s", i, appended.message().c_str()));
  }
  if (reader.pos != blob.size() - sizeof(stored_crc))
    return Status::IoError("session blob has trailing bytes");
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

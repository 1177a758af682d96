#include "cluster/handoff.h"

#include "common/file_util.h"
#include "common/sealed_frame.h"
#include "common/string_util.h"
#include "fault/fault.h"

namespace cascn::cluster {

namespace {

constexpr uint32_t kHandoffMagic = 0x444E4148;  // "HAND"
constexpr uint32_t kHandoffVersion = 1;

constexpr FrameFormat kHandoffFormat = {
    .name = "handoff file",
    .magic = kHandoffMagic,
    .min_version = kHandoffVersion,
    .max_version = kHandoffVersion,
    .min_field_bytes = 2 * sizeof(uint32_t),  // source shard, entry count
};

}  // namespace

std::string SerializeHandoff(int source_shard,
                             const std::vector<HandoffEntry>& entries) {
  FrameWriter w(kHandoffMagic, kHandoffVersion);
  w.Put<int32_t>(static_cast<int32_t>(source_shard));
  w.Put<uint32_t>(static_cast<uint32_t>(entries.size()));
  for (const HandoffEntry& entry : entries) {
    w.PutString(entry.session_id);
    w.PutString(entry.blob);
  }
  return std::move(w).Seal();
}

Result<HandoffImage> ParseHandoff(const std::string& bytes,
                                  const std::string& context) {
  CASCN_ASSIGN_OR_RETURN(FrameReader r,
                         OpenFrame(bytes, kHandoffFormat, context));
  HandoffImage image;
  int32_t source_shard = 0;
  CASCN_RETURN_IF_ERROR(r.Get(&source_shard, "source shard"));
  image.source_shard = source_shard;
  uint32_t count = 0;
  CASCN_RETURN_IF_ERROR(r.Get(&count, "entry count"));
  // Each entry holds two length words, so the bytes left bound the count
  // before anything is sized by it.
  if (count > r.remaining() / (2 * sizeof(uint32_t)))
    return r.Corrupt(StrFormat("implausible entry count %u", count));
  image.entries.resize(count);
  for (HandoffEntry& entry : image.entries) {
    CASCN_RETURN_IF_ERROR(r.GetString(&entry.session_id, "session id"));
    CASCN_RETURN_IF_ERROR(r.GetString(&entry.blob, "session blob"));
  }
  CASCN_RETURN_IF_ERROR(r.Finish());
  return image;
}

Status WriteHandoffFile(const std::string& path, int source_shard,
                        const std::vector<HandoffEntry>& entries) {
  const std::string bytes = SerializeHandoff(source_shard, entries);
  CASCN_RETURN_IF_ERROR(
      fault::InjectTornWrite(kFaultHandoffTornWrite, "handoff", path, bytes));
  return WriteFileAtomic(path, bytes);
}

Result<HandoffImage> ReadHandoffFile(const std::string& path) {
  CASCN_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  return ParseHandoff(bytes, path);
}

}  // namespace cascn::cluster

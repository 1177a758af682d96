// Shard handoff files: the durable leg of a live rebalance.
//
// When the router drains a shard, every session is extracted from the
// shard's SessionManager as a serialized blob and the set is written to a
// handoff file. The file is a sealed frame (common/sealed_frame.h) — magic,
// version, payload, trailing CRC-32 — like model checkpoints, so a torn or
// bit-rotted handoff is detected on read instead of silently importing
// half a shard's sessions. Writes go through WriteFileAtomic and the
// router re-reads the file before declaring the drain durable; the
// "cluster.handoff_torn_write" fault point simulates a crash mid-write
// (torn bytes under the temp name, destination untouched) to prove the
// retry path loses nothing.
//
// Layout (little-endian):
//   u32 magic "HAND"   u32 version 1   i32 source_shard   u32 entry_count
//   entries: { u32 id_len, id bytes, u32 blob_len, blob bytes }
//   u32 crc32 of every preceding byte

#ifndef CASCN_CLUSTER_HANDOFF_H_
#define CASCN_CLUSTER_HANDOFF_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace cascn::cluster {

/// Fault-injection point (src/fault): WriteHandoffFile leaves a torn image
/// under the temp name and fails with IoError; the destination (and the
/// in-memory sessions) are untouched, so the caller simply retries.
inline constexpr char kFaultHandoffTornWrite[] = "cluster.handoff_torn_write";

/// One drained session: its id plus the SessionManager::Serialize blob.
struct HandoffEntry {
  std::string session_id;
  std::string blob;
};

/// A parsed handoff file.
struct HandoffImage {
  int source_shard = -1;
  std::vector<HandoffEntry> entries;
};

/// Serializes entries into the self-validating handoff byte format.
std::string SerializeHandoff(int source_shard,
                             const std::vector<HandoffEntry>& entries);

/// Parses and validates a handoff image; `context` names the source in
/// error messages. IoError on truncation or CRC mismatch, InvalidArgument
/// on wrong magic/version.
Result<HandoffImage> ParseHandoff(const std::string& bytes,
                                  const std::string& context);

/// Atomic write of a handoff file (subject to kFaultHandoffTornWrite).
Status WriteHandoffFile(const std::string& path, int source_shard,
                        const std::vector<HandoffEntry>& entries);

/// Reads and validates a handoff file.
Result<HandoffImage> ReadHandoffFile(const std::string& path);

}  // namespace cascn::cluster

#endif  // CASCN_CLUSTER_HANDOFF_H_

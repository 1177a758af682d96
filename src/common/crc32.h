// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the trailer of
// every sealed frame (common/sealed_frame.h), which tells a cleanly written
// file or blob from a torn or bit-rotted one. Table-driven,
// byte-at-a-time; fast enough for checkpoint-sized payloads and
// dependency-free.

#ifndef CASCN_COMMON_CRC32_H_
#define CASCN_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cascn {

/// Incremental update: feeds `len` bytes into a running CRC. Start from
/// `crc = 0` (Crc32 below does this for you) and chain calls to checksum
/// scattered buffers.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t len);

/// One-shot CRC-32 of a buffer.
inline uint32_t Crc32(const void* data, size_t len) {
  return Crc32Update(0, data, len);
}

inline uint32_t Crc32(std::string_view bytes) {
  return Crc32Update(0, bytes.data(), bytes.size());
}

}  // namespace cascn

#endif  // CASCN_COMMON_CRC32_H_

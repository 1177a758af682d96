// Sealed frames: the one binary codec behind everything this project
// persists or moves between shards — model checkpoints, trainer state and
// session blobs.
//
// A sealed frame is
//
//   uint32  magic      names the format
//   uint32  version
//   ...     fields, little-endian as written by the host; a string is a
//           uint32 length and then its bytes
//   uint32  CRC-32 of every preceding byte
//
// FrameWriter builds one. OpenFrame checks one — size, CRC, magic, version —
// and returns a FrameReader over its fields, whose every read is bounds
// checked. One status rule holds for every format:
//
//   IoError          too short, CRC mismatch, a field cut short, a length
//                    past the bytes left, or bytes left over (torn/corrupt)
//   InvalidArgument  a frame with another format's magic or an unsupported
//                    version (foreign or skewed, not damaged)
//
// Both classes work on bare bytes too: a default-constructed FrameWriter
// writes no header, and a FrameReader can read any byte string.

#ifndef CASCN_COMMON_SEALED_FRAME_H_
#define CASCN_COMMON_SEALED_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/result.h"

namespace cascn {

/// Appends fields to a frame.
class FrameWriter {
 public:
  /// Bare bytes: no header.
  FrameWriter() = default;
  /// A frame that starts with `magic` and `version`.
  FrameWriter(uint32_t magic, uint32_t version) {
    Put(magic);
    Put(version);
  }

  template <typename T>
  void Put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutBytes(&v, sizeof(v));
  }

  /// A uint32 length, then the bytes.
  void PutString(std::string_view s) {
    Put(static_cast<uint32_t>(s.size()));
    PutBytes(s.data(), s.size());
  }

  /// Raw bytes, no length.
  void PutBytes(const void* data, size_t len) {
    bytes_.append(static_cast<const char*>(data), len);
  }

  const std::string& bytes() const { return bytes_; }

  /// The frame with the CRC-32 of every byte so far appended.
  std::string Seal() &&;

 private:
  std::string bytes_;
};

/// Bounds-checked cursor over a frame's fields (or any byte string). It
/// views the bytes, which must outlive it. Every failure is an IoError
/// that names the source and the field.
class FrameReader {
 public:
  /// Reads `bytes` from offset `pos`. `label` opens every error message
  /// (e.g. "path: checkpoint").
  explicit FrameReader(std::string_view bytes, std::string label = "frame",
                       size_t pos = 0)
      : bytes_(bytes), label_(std::move(label)), pos_(pos) {}

  template <typename T>
  Status Get(T* v, const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    return GetBytes(v, sizeof(T), what);
  }

  /// Copies the next `n` bytes into `dst`.
  Status GetBytes(void* dst, size_t n, const char* what) {
    if (n > remaining()) return Truncated(what);
    if (n == 0) return Status::OK();  // `dst` may be null
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  /// A uint32 length, at most `max_len`, then that many bytes.
  Status GetString(std::string* s, const char* what,
                   uint32_t max_len = UINT32_MAX);

  size_t remaining() const { return bytes_.size() - pos_; }

  /// OK once every byte was read; IoError for bytes left over.
  Status Finish() const;

  /// An IoError naming the source, e.g. for a field that fails a check.
  Status Corrupt(const std::string& message) const;

 private:
  Status Truncated(const char* what) const;

  std::string_view bytes_;
  std::string label_;
  size_t pos_ = 0;
};

/// What OpenFrame accepts.
struct FrameFormat {
  /// Names the format in messages ("checkpoint", "session blob", ...).
  const char* name;
  uint32_t magic;
  uint32_t min_version;
  uint32_t max_version;
  /// Versions below this carry no CRC (checkpoint v1). A format that has
  /// such versions checks the magic before the CRC, since only a known
  /// magic makes its version word mean anything.
  uint32_t first_sealed_version = 0;
  /// Bytes of fixed fields every version has after the version word; a
  /// frame too short to hold them is torn.
  size_t min_field_bytes = 0;
};

/// Checks `bytes` as a `format` frame and returns a reader over its fields:
/// after the version word, before the CRC. `context` (a path, or empty)
/// opens every message. `*version` (optional) receives the version.
Result<FrameReader> OpenFrame(std::string_view bytes, const FrameFormat& format,
                              const std::string& context,
                              uint32_t* version = nullptr);

}  // namespace cascn

#endif  // CASCN_COMMON_SEALED_FRAME_H_

#include "common/sealed_frame.h"

#include "common/crc32.h"
#include "common/string_util.h"

namespace cascn {

namespace {

constexpr size_t kHeaderBytes = 2 * sizeof(uint32_t);  // magic, version
constexpr size_t kCrcBytes = sizeof(uint32_t);

uint32_t LoadU32(std::string_view bytes, size_t pos) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + pos, sizeof(v));
  return v;
}

}  // namespace

std::string FrameWriter::Seal() && {
  Put(Crc32(bytes_));
  return std::move(bytes_);
}

Status FrameReader::GetString(std::string* s, const char* what,
                              uint32_t max_len) {
  uint32_t len = 0;
  CASCN_RETURN_IF_ERROR(Get(&len, what));
  if (len > max_len)
    return Corrupt(StrFormat("%s length %u is implausible", what, len));
  if (len > remaining()) return Truncated(what);
  s->assign(bytes_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Status FrameReader::Finish() const {
  if (remaining() == 0) return Status::OK();
  return Corrupt(StrFormat("%zu trailing bytes", remaining()));
}

Status FrameReader::Corrupt(const std::string& message) const {
  return Status::IoError(label_ + ": " + message);
}

Status FrameReader::Truncated(const char* what) const {
  return Status::IoError(StrFormat("%s truncated reading %s at offset %zu "
                                   "(size %zu)",
                                   label_.c_str(), what, pos_, bytes_.size()));
}

Result<FrameReader> OpenFrame(std::string_view bytes, const FrameFormat& format,
                              const std::string& context, uint32_t* version) {
  const std::string prefix = context.empty() ? "" : context + ": ";
  const auto too_short = [&] {
    return Status::IoError(StrFormat("%s%zu bytes is too short to be a %s",
                                     prefix.c_str(), bytes.size(),
                                     format.name));
  };
  if (bytes.size() < kHeaderBytes + format.min_field_bytes) return too_short();
  const uint32_t magic = LoadU32(bytes, 0);
  const uint32_t found_version = LoadU32(bytes, sizeof(uint32_t));
  const auto wrong_magic = [&] {
    return Status::InvalidArgument(StrFormat(
        "%snot a %s (magic 0x%08x)", prefix.c_str(), format.name, magic));
  };
  if (format.first_sealed_version > format.min_version &&
      magic != format.magic)
    return wrong_magic();

  size_t end = bytes.size();
  if (found_version >= format.first_sealed_version) {
    if (end < kHeaderBytes + format.min_field_bytes + kCrcBytes)
      return too_short();
    end -= kCrcBytes;
    const uint32_t stored = LoadU32(bytes, end);
    const uint32_t computed = Crc32(bytes.data(), end);
    if (stored != computed)
      return Status::IoError(StrFormat(
          "%schecksum mismatch (stored 0x%08x, computed 0x%08x): torn or "
          "corrupt %s",
          prefix.c_str(), stored, computed, format.name));
  }
  if (magic != format.magic) return wrong_magic();
  if (found_version < format.min_version || found_version > format.max_version)
    return Status::InvalidArgument(
        StrFormat("%sunsupported %s version %u (supported: %u..%u)",
                  prefix.c_str(), format.name, found_version,
                  format.min_version, format.max_version));
  if (version != nullptr) *version = found_version;
  return FrameReader(bytes.substr(0, end), prefix + format.name, kHeaderBytes);
}

}  // namespace cascn

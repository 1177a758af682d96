// The sealed-frame codec every persisted format shares: its byte layout,
// bounds-checked reads, and the one status rule (damage is IoError, a
// foreign or skewed frame is InvalidArgument).

#include "common/sealed_frame.h"

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "../testing/hex.h"
#include "common/crc32.h"

namespace cascn {
namespace {

constexpr FrameFormat kFormat = {
    .name = "test frame",
    .magic = 0x54534554,  // "TEST"
    .min_version = 3,
    .max_version = 3,
    .min_field_bytes = sizeof(uint16_t),
};

/// A checkpoint-like format whose version 1 predates the CRC.
constexpr FrameFormat kLegacyFormat = {
    .name = "legacy frame",
    .magic = 0x4745474C,  // "LGEG"
    .min_version = 1,
    .max_version = 2,
    .first_sealed_version = 2,
};

std::string SampleFrame() {
  FrameWriter w(kFormat.magic, 3);
  w.Put<uint16_t>(0x0102);
  w.PutString("ab");
  w.Put(-1.5);
  return std::move(w).Seal();
}

/// Replaces the trailing CRC so only the field checks can reject.
std::string Reseal(std::string frame) {
  const size_t body = frame.size() - sizeof(uint32_t);
  const uint32_t crc = Crc32(frame.data(), body);
  std::memcpy(frame.data() + body, &crc, sizeof(crc));
  return frame;
}

StatusCode OpenCode(const std::string& bytes, const FrameFormat& format) {
  return OpenFrame(bytes, format, "ctx").status().code();
}

TEST(SealedFrameTest, WriterLayoutIsPinned) {
  const std::string frame = SampleFrame();
  EXPECT_EQ(testing::Hex(frame.substr(0, frame.size() - 4)),
            "54455354" "03000000"  // magic, version
            "0201"                 // uint16
            "02000000" "6162"      // string "ab"
            "000000000000f8bf");   // double -1.5
  uint32_t crc = 0;
  std::memcpy(&crc, frame.data() + frame.size() - 4, sizeof(crc));
  EXPECT_EQ(crc, Crc32(frame.data(), frame.size() - 4));

  FrameWriter bare;
  bare.Put<uint8_t>(7);
  EXPECT_EQ(testing::Hex(bare.bytes()), "07");
}

TEST(SealedFrameTest, RoundTripsEveryFieldKind) {
  const std::string frame = SampleFrame();
  uint32_t version = 0;
  Result<FrameReader> opened = OpenFrame(frame, kFormat, "", &version);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(version, 3u);
  FrameReader& r = *opened;
  uint16_t u = 0;
  std::string s;
  double d = 0.0;
  ASSERT_TRUE(r.Get(&u, "u16").ok());
  ASSERT_TRUE(r.GetString(&s, "string").ok());
  EXPECT_FALSE(r.Finish().ok());  // the double is still unread
  ASSERT_TRUE(r.Get(&d, "double").ok());
  EXPECT_EQ(u, 0x0102);
  EXPECT_EQ(s, "ab");
  EXPECT_EQ(d, -1.5);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.Finish().ok());
  char extra = 0;
  const Status past_end = r.GetBytes(&extra, 1, "extra");
  EXPECT_EQ(past_end.code(), StatusCode::kIoError);
  EXPECT_NE(past_end.message().find("extra"), std::string::npos);
}

TEST(SealedFrameTest, EveryTruncationAndFlipIsAnIoError) {
  const std::string frame = SampleFrame();
  for (size_t len = 0; len < frame.size(); ++len)
    EXPECT_EQ(OpenCode(frame.substr(0, len), kFormat), StatusCode::kIoError)
        << len;
  for (size_t i = 0; i < frame.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80}) {
      std::string flipped = frame;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      EXPECT_EQ(OpenCode(flipped, kFormat), StatusCode::kIoError) << i;
    }
  }
}

TEST(SealedFrameTest, SealedForeignOrSkewedFramesAreInvalidArgument) {
  std::string magic = SampleFrame();
  magic[0] = 'X';
  const Status foreign = OpenFrame(Reseal(magic), kFormat, "ctx").status();
  EXPECT_EQ(foreign.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(foreign.message().rfind("ctx: not a test frame", 0), 0u)
      << foreign;

  std::string version = SampleFrame();
  version[4] = 4;
  const Status skewed = OpenFrame(Reseal(version), kFormat, "").status();
  EXPECT_EQ(skewed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(skewed.message().find("version 4"), std::string::npos) << skewed;
}

TEST(SealedFrameTest, FramesShorterThanTheirFixedFieldsAreTorn) {
  // Header and CRC, but no room for the uint16 every version has: torn,
  // whatever the magic says.
  FrameWriter w(0xFFFFFFFF, 3);
  EXPECT_EQ(OpenCode(std::move(w).Seal(), kFormat), StatusCode::kIoError);
}

TEST(SealedFrameTest, ReaderBoundsEveryLength) {
  FrameWriter w;
  w.Put<uint32_t>(100);  // a string length past the end
  w.PutBytes("abc", 3);
  std::string s;
  FrameReader past(w.bytes(), "bare");
  const Status status = past.GetString(&s, "name");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(status.message().rfind("bare truncated reading name", 0), 0u)
      << status;

  FrameReader capped(w.bytes());
  EXPECT_EQ(capped.GetString(&s, "name", /*max_len=*/10).code(),
            StatusCode::kIoError);

  FrameReader empty("");
  uint64_t v = 0;
  EXPECT_EQ(empty.Get(&v, "v").code(), StatusCode::kIoError);
  EXPECT_TRUE(empty.GetBytes(nullptr, 0, "nothing").ok());
  EXPECT_TRUE(empty.Finish().ok());
}

TEST(SealedFrameTest, UnsealedLegacyVersionsCarryNoCrc) {
  FrameWriter v1(kLegacyFormat.magic, 1);
  v1.Put<uint32_t>(42);
  uint32_t version = 0;
  Result<FrameReader> opened = OpenFrame(v1.bytes(), kLegacyFormat, "",
                                         &version);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(opened->remaining(), sizeof(uint32_t));

  FrameWriter v2(kLegacyFormat.magic, 2);
  v2.Put<uint32_t>(42);
  std::string sealed = std::move(v2).Seal();
  ASSERT_TRUE(OpenFrame(sealed, kLegacyFormat, "", &version).ok());
  EXPECT_EQ(version, 2u);
  sealed[8] ^= 0x01;
  EXPECT_EQ(OpenCode(sealed, kLegacyFormat), StatusCode::kIoError);

  // Only a known magic makes the version word meaningful, so a legacy
  // format checks the magic first: a foreign file is InvalidArgument even
  // though no CRC matches it.
  EXPECT_EQ(OpenCode("definitely not a frame", kLegacyFormat),
            StatusCode::kInvalidArgument);
  FrameWriter v0(kLegacyFormat.magic, 0);
  EXPECT_EQ(OpenCode(v0.bytes(), kLegacyFormat),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(OpenCode(std::string(7, '\0'), kLegacyFormat),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace cascn

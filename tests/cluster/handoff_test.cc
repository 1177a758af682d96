// Handoff files: round-trip fidelity, detection of torn/corrupt images,
// and the injected torn-write fault that the rebalance retry path absorbs.

#include "cluster/handoff.h"

#include <cstdio>
#include <cstring>

#include <gtest/gtest.h>

#include "../testing/hex.h"
#include "common/crc32.h"
#include "common/file_util.h"
#include "fault/fault.h"

namespace cascn::cluster {
namespace {

class HandoffTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::Get().Clear(); }
  void TearDown() override { fault::FaultRegistry::Get().Clear(); }

  static std::string TempPath(const char* name) {
    return ::testing::TempDir() + name;
  }
};

std::vector<HandoffEntry> SampleEntries() {
  return {
      {"session-a", std::string("\x01\x02\x03", 3)},
      {"session-b", ""},  // an empty blob is legal
      {"s", std::string(1000, 'x')},
  };
}

TEST_F(HandoffTest, SerializeParseRoundTrip) {
  const auto entries = SampleEntries();
  const std::string bytes = SerializeHandoff(7, entries);
  Result<HandoffImage> parsed = ParseHandoff(bytes, "test");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().source_shard, 7);
  ASSERT_EQ(parsed.value().entries.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(parsed.value().entries[i].session_id, entries[i].session_id);
    EXPECT_EQ(parsed.value().entries[i].blob, entries[i].blob);
  }
}

TEST_F(HandoffTest, EmptyImageRoundTrips) {
  const std::string bytes = SerializeHandoff(0, {});
  Result<HandoffImage> parsed = ParseHandoff(bytes, "empty");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed.value().entries.empty());
}

TEST_F(HandoffTest, SerializedBytesArePinned) {
  // Handoff format version 1, byte for byte: a drain written by one build
  // is imported by another, so the layout must never drift.
  const std::vector<HandoffEntry> entries = {
      {"a", std::string("\x01\x02", 2)},
      {"bc", ""},
  };
  EXPECT_EQ(testing::Hex(SerializeHandoff(5, entries)),
            "48414e44" "01000000"  // magic "HAND", version
            "05000000" "02000000"  // source shard 5, 2 entries
            "01000000" "61" "02000000" "0102"  // "a", 2-byte blob
            "02000000" "6263" "00000000"       // "bc", empty blob
            "33a8edc9");  // CRC-32 of everything before it
}

TEST_F(HandoffTest, TruncationAndBitRotAreIoErrors) {
  const std::string bytes = SerializeHandoff(1, SampleEntries());
  for (const size_t keep : {bytes.size() / 2, bytes.size() - 1, size_t{4}}) {
    Result<HandoffImage> torn = ParseHandoff(bytes.substr(0, keep), "torn");
    EXPECT_FALSE(torn.ok());
    EXPECT_EQ(torn.status().code(), StatusCode::kIoError) << keep;
  }
  std::string corrupt = bytes;
  corrupt[bytes.size() / 3] ^= 0x40;
  Result<HandoffImage> flipped = ParseHandoff(corrupt, "corrupt");
  EXPECT_FALSE(flipped.ok());
  EXPECT_EQ(flipped.status().code(), StatusCode::kIoError);
}

TEST_F(HandoffTest, WrongMagicIsInvalidArgument) {
  std::string bytes = SerializeHandoff(1, SampleEntries());
  bytes[0] = 'X';
  // Re-stamp the CRC so only the magic is at fault.
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - sizeof(uint32_t));
  std::memcpy(bytes.data() + bytes.size() - sizeof(uint32_t), &crc,
              sizeof(crc));
  Result<HandoffImage> parsed = ParseHandoff(bytes, "magic");
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(HandoffTest, WriteReadRoundTripsThroughDisk) {
  const std::string path = TempPath("handoff_roundtrip.bin");
  ASSERT_TRUE(WriteHandoffFile(path, 3, SampleEntries()).ok());
  Result<HandoffImage> read = ReadHandoffFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value().source_shard, 3);
  EXPECT_EQ(read.value().entries.size(), 3u);
  std::remove(path.c_str());
}

TEST_F(HandoffTest, InjectedTornWriteFailsThenRetrySucceeds) {
  const std::string path = TempPath("handoff_torn.bin");
  std::remove(path.c_str());
  ASSERT_TRUE(fault::FaultRegistry::Get()
                  .Configure(std::string(kFaultHandoffTornWrite) + "=nth:1")
                  .ok());
  const auto entries = SampleEntries();
  // First write is torn mid-stream: it fails, and the destination does not
  // exist (only a torn temp file does).
  const Status torn = WriteHandoffFile(path, 2, entries);
  EXPECT_EQ(torn.code(), StatusCode::kIoError);
  EXPECT_FALSE(ReadHandoffFile(path).ok());
  // The torn temp image itself fails CRC validation if ever read.
  Result<std::string> tmp = ReadFileToString(path + ".tmp");
  ASSERT_TRUE(tmp.ok());
  EXPECT_EQ(ParseHandoff(tmp.value(), "tmp").status().code(),
            StatusCode::kIoError);
  // The retry (fault exhausted) lands the full image.
  ASSERT_TRUE(WriteHandoffFile(path, 2, entries).ok());
  Result<HandoffImage> read = ReadHandoffFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value().entries.size(), entries.size());
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace cascn::cluster

// Robustness of checkpoint I/O under torn writes, truncation at every
// offset, bit rot, and injected faults: loads must fail with a descriptive
// Status — never crash — and the atomic write must never leave a torn image
// under the destination name.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "../testing/test_data.h"
#include "common/crc32.h"
#include "core/cascn_model.h"
#include "fault/fault.h"
#include "serve/checkpoint.h"

namespace cascn::serve {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "cascn_robust_" + name + ".bin";
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class CheckpointRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Get().Clear();
    path_ = TempPath(::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    CascnConfig config = testing::TinyCascnConfig();
    config.seed = 5;
    CascnModel model(config);
    model.set_output_offset(0.75);
    ASSERT_TRUE(SaveCascnCheckpoint(path_, model).ok());
  }

  void TearDown() override {
    fault::FaultRegistry::Get().Clear();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  std::string path_;
};

TEST_F(CheckpointRobustnessTest, TruncationSweepNeverCrashes) {
  // Cut a valid checkpoint at every 64-byte boundary (and the last few
  // bytes individually): every prefix must be rejected with a non-OK
  // status, never accepted and never a crash.
  const std::string bytes = ReadAll(path_);
  ASSERT_GT(bytes.size(), 64u);
  for (size_t keep = 0; keep < bytes.size(); keep += 64) {
    SCOPED_TRACE(keep);
    WriteAll(path_, bytes.substr(0, keep));
    const auto result = LoadCascnCheckpoint(path_);
    EXPECT_FALSE(result.ok());
    EXPECT_FALSE(result.status().message().empty());
  }
  for (size_t cut = 1; cut <= 4 && cut < bytes.size(); ++cut) {
    SCOPED_TRACE(bytes.size() - cut);
    WriteAll(path_, bytes.substr(0, bytes.size() - cut));
    EXPECT_FALSE(LoadCascnCheckpoint(path_).ok());
  }
  // The untouched original still loads.
  WriteAll(path_, bytes);
  EXPECT_TRUE(LoadCascnCheckpoint(path_).ok());
}

TEST_F(CheckpointRobustnessTest, SingleFlippedBitIsDetected) {
  std::string bytes = ReadAll(path_);
  // Flip one bit in the middle of the parameter payload — a corruption the
  // v1 footer check could not see.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteAll(path_, bytes);
  const auto result = LoadCascnCheckpoint(path_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);
}

TEST_F(CheckpointRobustnessTest, HeaderReadChecksTheChecksum) {
  // The header itself is intact; the flip is in the parameter payload.
  std::string bytes = ReadAll(path_);
  ASSERT_TRUE(ReadCheckpointHeaderFile(path_).ok());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteAll(path_, bytes);
  const auto result = ReadCheckpointHeaderFile(path_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);
}

TEST_F(CheckpointRobustnessTest, VersionOneFilesStillLoad) {
  // A v1 file is the current image minus the trailing CRC, with the version
  // field rewritten — what a pre-CRC writer produced.
  std::string bytes = ReadAll(path_);
  bytes.resize(bytes.size() - sizeof(uint32_t));
  const uint32_t v1 = 1;
  std::memcpy(bytes.data() + sizeof(uint32_t), &v1, sizeof(v1));
  WriteAll(path_, bytes);
  const auto result = LoadCascnCheckpoint(path_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_DOUBLE_EQ(result.value()->output_offset(), 0.75);
}

TEST_F(CheckpointRobustnessTest, TrailingGarbageIsRejected) {
  std::string bytes = ReadAll(path_);
  WriteAll(path_, bytes + std::string(16, '\0'));
  EXPECT_FALSE(LoadCascnCheckpoint(path_).ok());
}

TEST_F(CheckpointRobustnessTest, TornWriteLeavesDestinationIntact) {
  const std::string original = ReadAll(path_);
  fault::FaultRegistry::Get().Configure(
      std::string(kFaultCheckpointTornWrite) + "=always");
  CascnConfig config = testing::TinyCascnConfig();
  config.seed = 6;  // different weights than the file on disk
  CascnModel replacement(config);
  const Status status = SaveCascnCheckpoint(path_, replacement);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("torn"), std::string::npos);
  // The destination still holds the previous, fully valid checkpoint.
  EXPECT_EQ(ReadAll(path_), original);
  EXPECT_TRUE(LoadCascnCheckpoint(path_).ok());
  // The torn image exists only under the temp name, and is itself rejected.
  const std::string torn = ReadAll(path_ + ".tmp");
  ASSERT_FALSE(torn.empty());
  EXPECT_LT(torn.size(), original.size());
  WriteAll(path_ + ".torn-as-main", torn);
  EXPECT_FALSE(LoadCascnCheckpoint(path_ + ".torn-as-main").ok());
  std::remove((path_ + ".torn-as-main").c_str());
  fault::FaultRegistry::Get().Clear();
}

TEST_F(CheckpointRobustnessTest, InjectedWriteFailureIsClean) {
  fault::FaultRegistry::Get().Configure(
      std::string(kFaultCheckpointWriteFail) + "=always");
  CascnModel model(testing::TinyCascnConfig());
  const Status status = SaveCascnCheckpoint(path_, model);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(kFaultCheckpointWriteFail),
            std::string::npos);
  fault::FaultRegistry::Get().Clear();
  EXPECT_TRUE(LoadCascnCheckpoint(path_).ok());  // previous file intact
}

TEST_F(CheckpointRobustnessTest, InjectedLoadFailureIsSurfaced) {
  fault::FaultRegistry::Get().Configure(
      std::string(kFaultCheckpointLoadFail) + "=nth:1");
  EXPECT_FALSE(LoadCascnCheckpoint(path_).ok());  // first load fails
  EXPECT_TRUE(LoadCascnCheckpoint(path_).ok());   // second is clean
  fault::FaultRegistry::Get().Clear();
}

TEST_F(CheckpointRobustnessTest, MissingFileNamesPathAndErrno) {
  const auto result = ReadCheckpointHeaderFile(path_ + ".missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find(path_ + ".missing"),
            std::string::npos);
  // strerror text for ENOENT.
  EXPECT_NE(result.status().message().find("No such file"),
            std::string::npos);
}

}  // namespace
}  // namespace cascn::serve

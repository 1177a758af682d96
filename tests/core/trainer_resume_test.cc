// Crash-safe training: the epoch-boundary state file round-trips, rejects
// torn or foreign files, and a run resumed from it finishes with exactly the
// weights of a run that never stopped.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../testing/hex.h"
#include "../testing/test_data.h"
#include "common/crc32.h"
#include "common/file_util.h"
#include "core/cascn_model.h"
#include "core/train_state.h"
#include "core/trainer.h"

namespace cascn {
namespace {

using testing::TinyCascnConfig;
using testing::TinyDataset;
using testing::TinyTrainerOptions;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "cascn_resume_" + name + ".bin";
}

std::string ReadAll(const std::string& path) {
  auto bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? bytes.value() : std::string();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TrainState SampleState() {
  TrainState st;
  st.next_epoch = 3;
  st.learning_rate = 2.5e-3;
  st.stagnant = 1;
  st.best_epoch = 2;
  st.best_validation_msle = 0.75;
  st.global_step = 42;
  st.skipped_steps = 2;
  Rng rng(5);
  rng.Normal();  // leaves a cached normal in the state
  st.rng = rng.SaveState();
  st.output_offset = 1.25;
  for (int i = 0; i < 2; ++i) {
    st.params.push_back(Tensor::RandomNormal(2, 3, 1.0, rng));
    st.adam_m.push_back(Tensor::RandomNormal(2, 3, 1.0, rng));
    st.adam_v.push_back(Tensor::RandomNormal(2, 3, 1.0, rng));
    st.best_weights.push_back(Tensor::RandomNormal(2, 3, 1.0, rng));
  }
  st.adam_t = 42;
  st.history_train_loss = {1.5, 1.25};
  st.history_validation_msle = {1.0, 0.75};
  return st;
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(TrainStateTest, RoundTripsEveryField) {
  const std::string path = TempPath("roundtrip");
  const TrainState st = SampleState();
  ASSERT_TRUE(SaveTrainState(path, st).ok());
  auto loaded = LoadTrainState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const TrainState& got = loaded.value();
  EXPECT_EQ(got.next_epoch, st.next_epoch);
  EXPECT_EQ(got.learning_rate, st.learning_rate);
  EXPECT_EQ(got.stagnant, st.stagnant);
  EXPECT_EQ(got.best_epoch, st.best_epoch);
  EXPECT_EQ(got.best_validation_msle, st.best_validation_msle);
  EXPECT_EQ(got.global_step, st.global_step);
  EXPECT_EQ(got.skipped_steps, st.skipped_steps);
  EXPECT_EQ(got.output_offset, st.output_offset);
  EXPECT_EQ(got.adam_t, st.adam_t);
  EXPECT_EQ(std::memcmp(got.rng.s, st.rng.s, sizeof(st.rng.s)), 0);
  EXPECT_EQ(got.rng.has_cached_normal, st.rng.has_cached_normal);
  EXPECT_EQ(got.rng.cached_normal, st.rng.cached_normal);
  for (size_t i = 0; i < st.params.size(); ++i) {
    EXPECT_TRUE(BitEqual(got.params[i], st.params[i]));
    EXPECT_TRUE(BitEqual(got.adam_m[i], st.adam_m[i]));
    EXPECT_TRUE(BitEqual(got.adam_v[i], st.adam_v[i]));
    EXPECT_TRUE(BitEqual(got.best_weights[i], st.best_weights[i]));
  }
  EXPECT_EQ(got.history_train_loss, st.history_train_loss);
  EXPECT_EQ(got.history_validation_msle, st.history_validation_msle);
  std::remove(path.c_str());
}

TEST(TrainStateTest, SerializedBytesArePinned) {
  // Train state format version 1, byte for byte: a run resumes from a file
  // an older build wrote, so the layout must never drift.
  TrainState st;
  st.next_epoch = 2;
  st.best_epoch = 1;
  st.learning_rate = 0.5;
  st.best_validation_msle = 0.25;
  st.output_offset = 1.0;
  st.global_step = 3;
  st.adam_t = 3;
  st.rng.s[0] = 1;
  st.rng.s[1] = 2;
  st.rng.s[2] = 3;
  st.rng.s[3] = 4;
  st.params = {Tensor(1, 1, 0.5)};
  st.adam_m = {Tensor(1, 1, 0.25)};
  st.adam_v = {Tensor(1, 1, 1.0)};
  st.history_train_loss = {2.0};
  st.history_validation_msle = {0.25};
  const std::string path = TempPath("pinned");
  ASSERT_TRUE(SaveTrainState(path, st).ok());
  EXPECT_EQ(testing::Hex(ReadAll(path)),
            "54525354" "01000000"  // magic "TRST", version 1
            "02000000" "00000000" "01000000"  // epochs: next, stagnant, best
            "000000000000e03f"  // learning rate 0.5
            "000000000000d03f"  // best validation MSLE 0.25
            "000000000000f03f"  // output offset 1.0
            "0300000000000000" "0000000000000000"  // global, skipped steps
            "0300000000000000"  // Adam step
            "0100000000000000" "0200000000000000"  // rng words
            "0300000000000000" "0400000000000000"
            "00" "0000000000000000"  // no cached normal
            // params, Adam m, Adam v: one 1x1 tensor each; no best weights
            "01000000" "01000000" "01000000" "000000000000e03f"
            "01000000" "01000000" "01000000" "000000000000d03f"
            "01000000" "01000000" "01000000" "000000000000f03f"
            "00000000"
            "01000000" "0000000000000040"  // train loss history {2.0}
            "01000000" "000000000000d03f"  // validation history {0.25}
            "0f518434");  // CRC-32 of everything before it
  std::remove(path.c_str());
}

TEST(TrainStateTest, RejectsEveryTruncation) {
  const std::string path = TempPath("truncated");
  ASSERT_TRUE(SaveTrainState(path, SampleState()).ok());
  const std::string bytes = ReadAll(path);
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteAll(path, bytes.substr(0, len));
    EXPECT_FALSE(LoadTrainState(path).ok()) << "accepted " << len << " bytes";
  }
  std::remove(path.c_str());
}

TEST(TrainStateTest, RejectsEveryFlippedByte) {
  const std::string path = TempPath("flipped");
  ASSERT_TRUE(SaveTrainState(path, SampleState()).ok());
  const std::string bytes = ReadAll(path);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] ^= 0x10;
    WriteAll(path, corrupt);
    EXPECT_FALSE(LoadTrainState(path).ok()) << "accepted a flip at " << i;
  }
  std::remove(path.c_str());
}

TEST(TrainStateTest, RejectsVersionMismatchAndInconsistentLists) {
  const std::string path = TempPath("version");
  ASSERT_TRUE(SaveTrainState(path, SampleState()).ok());
  // A well-formed file (valid CRC) from another format version.
  std::string bytes = ReadAll(path);
  const uint32_t other_version = kTrainStateVersion + 1;
  std::memcpy(bytes.data() + sizeof(uint32_t), &other_version,
              sizeof(other_version));
  bytes.resize(bytes.size() - sizeof(uint32_t));
  const uint32_t crc = Crc32(bytes);
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  WriteAll(path, bytes);
  auto loaded = LoadTrainState(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos)
      << loaded.status();

  TrainState lopsided = SampleState();
  lopsided.adam_v.pop_back();
  ASSERT_TRUE(SaveTrainState(path, lopsided).ok());
  EXPECT_FALSE(LoadTrainState(path).ok());

  TrainState uneven = SampleState();
  uneven.history_validation_msle.pop_back();
  ASSERT_TRUE(SaveTrainState(path, uneven).ok());
  EXPECT_FALSE(LoadTrainState(path).ok());
  std::remove(path.c_str());
}

std::vector<Tensor> Weights(CascnModel& model) {
  std::vector<Tensor> weights;
  for (const ag::Variable& p : model.TrainableParameters())
    weights.push_back(p.value());
  return weights;
}

TrainerOptions FixedEpochs(int epochs, const std::string& state_path) {
  TrainerOptions options = TinyTrainerOptions(epochs);
  options.patience = epochs + 1;  // no early stop: epochs are fixed
  options.checkpoint_path = state_path;
  return options;
}

class TrainerResumeTest : public ::testing::TestWithParam<int> {};

TEST_P(TrainerResumeTest, ResumedRunMatchesUninterruptedRunBitForBit) {
  const int kill_after = GetParam();
  constexpr int kEpochs = 3;
  const CascadeDataset dataset = TinyDataset();

  CascnModel full(TinyCascnConfig());
  const TrainResult full_result =
      TrainRegressor(full, dataset, FixedEpochs(kEpochs, ""));

  const std::string path = TempPath("resume_" + std::to_string(kill_after));
  std::remove(path.c_str());
  CascnModel killed(TinyCascnConfig());
  TrainRegressor(killed, dataset, FixedEpochs(kill_after, path));

  CascnModel resumed(TinyCascnConfig());
  const TrainResult resumed_result =
      TrainRegressor(resumed, dataset, FixedEpochs(kEpochs, path));
  EXPECT_TRUE(resumed_result.resumed_from_checkpoint);

  const std::vector<Tensor> a = Weights(full), b = Weights(resumed);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(BitEqual(a[i], b[i]));
  EXPECT_EQ(full_result.best_epoch, resumed_result.best_epoch);
  EXPECT_EQ(full_result.best_validation_msle,
            resumed_result.best_validation_msle);
  ASSERT_EQ(full_result.history.size(), resumed_result.history.size());
  for (size_t e = 0; e < full_result.history.size(); ++e) {
    EXPECT_EQ(full_result.history[e].train_loss,
              resumed_result.history[e].train_loss);
    EXPECT_EQ(full_result.history[e].validation_msle,
              resumed_result.history[e].validation_msle);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(KillAfterEpoch, TrainerResumeTest,
                         ::testing::Values(1, 2));

TEST(TrainerStateFileTest, CorruptStateFileIsIgnored) {
  constexpr int kEpochs = 2;
  const CascadeDataset dataset = TinyDataset();
  CascnModel fresh(TinyCascnConfig());
  TrainRegressor(fresh, dataset, FixedEpochs(kEpochs, ""));

  const std::string path = TempPath("corrupt");
  WriteAll(path, "definitely not a train state");
  CascnModel model(TinyCascnConfig());
  const TrainResult result =
      TrainRegressor(model, dataset, FixedEpochs(kEpochs, path));
  EXPECT_FALSE(result.resumed_from_checkpoint);
  EXPECT_EQ(static_cast<int>(result.history.size()), kEpochs);
  const std::vector<Tensor> a = Weights(fresh), b = Weights(model);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(BitEqual(a[i], b[i]));
  // The run replaced the corrupt file with a valid state.
  EXPECT_TRUE(LoadTrainState(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cascn

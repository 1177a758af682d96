// Trained-bits golden test: a seeded tiny CasCN trained for two epochs must
// end with exactly the parameter and Adam-state bytes pinned below, serially
// and at two threads. Any change to the order in which a forward or backward
// pass adds floating-point terms moves these hashes, so a kernel rewrite
// that claims bit-identical training has to pass with the constants as they
// are. The model's exp, tanh, sigmoid and log1p and Adam's bias correction
// are the repository's own (common/math_util.h), so the hashes do not depend
// on the host's libm: they hold on glibc's FMA and non-FMA code paths alike.

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../testing/test_data.h"
#include "core/cascn_model.h"
#include "core/train_state.h"
#include "core/trainer.h"
#include "parallel/parallel_for.h"

namespace cascn {
namespace {

using testing::TinyCascnConfig;
using testing::TinyDataset;
using testing::TinyTrainerOptions;

/// 64-bit FNV-1a over raw bytes.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Tensors(const std::vector<Tensor>& tensors) {
    for (const Tensor& t : tensors) {
      const int shape[2] = {t.rows(), t.cols()};
      Bytes(shape, sizeof(shape));
      Bytes(t.data(), static_cast<size_t>(t.size()) * sizeof(double));
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct Case {
  const char* name;
  CascnVariant variant;
  bool attention_pooling;
  uint64_t parameters;  // final model parameters
  uint64_t adam;        // Adam step count and moments after the last epoch
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

struct Hashes {
  uint64_t parameters;
  uint64_t adam;
};

/// Trains the case's model for two epochs at `threads` and hashes the final
/// weights and the Adam state the trainer saved after its last epoch.
Hashes Train(const Case& c, size_t threads) {
  parallel::SetThreads(threads);
  CascnConfig config = TinyCascnConfig();
  config.variant = c.variant;
  config.attention_pooling = c.attention_pooling;
  CascnModel model(config);
  TrainerOptions options = TinyTrainerOptions(2);
  options.checkpoint_path = ::testing::TempDir() + "cascn_trained_bits_" +
                            c.name + "_" + std::to_string(threads) + ".bin";
  options.resume = false;
  std::remove(options.checkpoint_path.c_str());
  TrainRegressor(model, TinyDataset(), options);
  parallel::SetThreads(0);

  Fnv1a parameters;
  std::vector<Tensor> weights;
  for (const ag::Variable& p : model.TrainableParameters())
    weights.push_back(p.value());
  parameters.Tensors(weights);

  const Result<TrainState> state = LoadTrainState(options.checkpoint_path);
  EXPECT_TRUE(state.ok()) << state.status();
  std::remove(options.checkpoint_path.c_str());
  Fnv1a adam;
  if (state.ok()) {
    adam.Bytes(&state.value().adam_t, sizeof(state.value().adam_t));
    adam.Tensors(state.value().adam_m);
    adam.Tensors(state.value().adam_v);
  }
  return {parameters.value(), adam.value()};
}

class TrainedBitsTest : public ::testing::TestWithParam<Case> {};

TEST_P(TrainedBitsTest, MatchesThePinnedHashesSeriallyAndAtTwoThreads) {
  const Case& c = GetParam();
  for (const size_t threads : {size_t{1}, size_t{2}}) {
    const Hashes got = Train(c, threads);
    EXPECT_EQ(got.parameters, c.parameters)
        << c.name << " at " << threads << " threads: parameters 0x" << std::hex
        << got.parameters;
    EXPECT_EQ(got.adam, c.adam) << c.name << " at " << threads
                                << " threads: Adam state 0x" << std::hex
                                << got.adam;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, TrainedBitsTest,
    ::testing::Values(Case{"default", CascnVariant::kDefault, false,
                           0x371ba6e9ab82fa06ULL, 0xa450f977a8cd0f3fULL},
                      Case{"gru", CascnVariant::kGru, false,
                           0x578754f0b6bfef96ULL, 0x0209982ee2cc25fbULL},
                      Case{"no_time_decay", CascnVariant::kNoTimeDecay, false,
                           0xb94aaa01b0c78364ULL, 0xdbe80bf06901f854ULL},
                      Case{"undirected", CascnVariant::kUndirected, false,
                           0x0e86534b22593ce3ULL, 0xcc884ea560a79ed2ULL},
                      Case{"attention", CascnVariant::kDefault, true,
                           0x7d173ea04fa48fccULL, 0x09971c37657b1472ULL},
                      Case{"gcn_lstm", CascnVariant::kGcnLstm, false,
                           0xaecfd192dba672b3ULL, 0x9a19ed22dac30809ULL}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace cascn

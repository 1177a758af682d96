#include "core/cascn_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <new>
#include <thread>

#include <gtest/gtest.h>

#include "../testing/test_data.h"
#include "core/cascn_path_model.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "serve/checkpoint.h"

namespace cascn {
namespace {

using testing::TinyCascnConfig;
using testing::TinyDataset;

TEST(CascnModelTest, PredictIsScalarAndFinite) {
  const CascadeDataset dataset = TinyDataset();
  CascnModel model(TinyCascnConfig());
  const ag::Variable pred = model.PredictLog(dataset.train[0]);
  EXPECT_EQ(pred.rows(), 1);
  EXPECT_EQ(pred.cols(), 1);
  EXPECT_TRUE(std::isfinite(pred.value().At(0, 0)));
}

TEST(CascnModelTest, DeterministicAcrossConstructionsWithSameSeed) {
  const CascadeDataset dataset = TinyDataset();
  CascnModel a(TinyCascnConfig());
  CascnModel b(TinyCascnConfig());
  EXPECT_DOUBLE_EQ(a.PredictLog(dataset.train[0]).value().At(0, 0),
                   b.PredictLog(dataset.train[0]).value().At(0, 0));
}

TEST(CascnModelTest, DifferentSeedsDiffer) {
  const CascadeDataset dataset = TinyDataset();
  CascnConfig config = TinyCascnConfig();
  CascnModel a(config);
  config.seed = 777;
  CascnModel b(config);
  EXPECT_NE(a.PredictLog(dataset.train[0]).value().At(0, 0),
            b.PredictLog(dataset.train[0]).value().At(0, 0));
}

TEST(CascnModelTest, GradientsReachEveryParameter) {
  const CascadeDataset dataset = TinyDataset();
  CascnModel model(TinyCascnConfig());
  // Two samples so several decay intervals participate.
  ag::Variable loss =
      ag::Add(ag::Square(model.PredictLog(dataset.train[0])),
              ag::Square(model.PredictLog(dataset.train[1])));
  ag::Sum(loss).Backward();
  int with_grad = 0, total = 0;
  for (const auto& [name, p] : model.NamedParameters()) {
    ++total;
    if (!p.grad().empty()) ++with_grad;
  }
  // All parameters except possibly unused decay intervals get gradients.
  EXPECT_GE(with_grad, total - 1);
}

class VariantSweep : public ::testing::TestWithParam<CascnVariant> {};

TEST_P(VariantSweep, ConstructsPredictsAndBackprops) {
  const CascadeDataset dataset = TinyDataset();
  CascnConfig config = TinyCascnConfig();
  config.variant = GetParam();
  CascnModel model(config);
  EXPECT_EQ(model.name(), VariantName(GetParam()));
  const ag::Variable pred = model.PredictLog(dataset.train[0]);
  EXPECT_TRUE(std::isfinite(pred.value().At(0, 0)));
  ag::Square(pred).Backward();
  // At least the MLP got gradients.
  int with_grad = 0;
  for (const auto& p : model.Parameters())
    if (!p.grad().empty()) ++with_grad;
  EXPECT_GT(with_grad, 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A values-only forward encodes into a local: PredictValue and
/// Representation on fresh samples leave the encoding cache empty, and
/// PredictValue gives the bits a recorded forward gives from a cached
/// encoding. A recorded forward afterwards still caches its encoding.
TEST_P(VariantSweep, PredictValueIsTheRecordedForwardBitForBit) {
  const CascadeDataset dataset = TinyDataset();
  for (const bool attention : {false, true}) {
    CascnConfig config = TinyCascnConfig();
    config.variant = GetParam();
    config.attention_pooling = attention;
    CascnModel model(config);
    model.set_output_offset(0.7);
    for (size_t i = 0; i < 4; ++i) {
      const std::string where =
          "attention=" + std::to_string(attention) + " sample " +
          std::to_string(i);
      const CascadeSample& sample = dataset.train[i];
      const double served = model.PredictValue(sample);
      const Tensor representation = model.Representation(sample);
      EXPECT_EQ(model.EncodingCacheSize(), 0u) << where;

      model.PredictLogCalibrated(sample);
      ASSERT_EQ(model.EncodingCacheSize(), 1u) << where;
      const ag::Variable recorded = model.PredictLogCalibrated(sample);
      ASSERT_TRUE(recorded.needs_grad()) << where;
      EXPECT_EQ(model.EncodingCacheSize(), 1u) << where << ": cache missed";
      EXPECT_TRUE(SameBits(recorded.value().At(0, 0), served))
          << where << ": " << recorded.value().At(0, 0) << " vs " << served;
      // With the encoding cached, Representation neither reads the entry
      // nor adds one, and keeps its bits.
      EXPECT_TRUE(SameBits(model.Representation(sample), representation))
          << where;
      EXPECT_EQ(model.EncodingCacheSize(), 1u) << where;
      model.ClearCache();
    }
  }
}

/// A cascade of `size` nodes, each adopting from an earlier one, spread
/// over a 60-minute window.
CascadeSample GrowingSample(int size, uint64_t seed) {
  Rng rng(seed);
  std::vector<AdoptionEvent> events = {{0, 0, {}, 0.0}};
  for (int i = 1; i < size; ++i) {
    AdoptionEvent e;
    e.node = i;
    e.user = i;
    e.parents.push_back(static_cast<int>(rng.UniformInt(i)));
    e.time = 55.0 * i / size;
    events.push_back(e);
  }
  CascadeSample sample;
  sample.observed =
      std::move(Cascade::Create("growing", std::move(events))).value();
  sample.observation_window = 60.0;
  return sample;
}

/// PredictValue (the fused kernel under the guard) against the recorded
/// forward, bit for bit.
void ExpectServedIsRecorded(CascnModel& model, const CascadeSample& sample,
                            const std::string& where) {
  const ag::Variable recorded = model.PredictLogCalibrated(sample);
  ASSERT_TRUE(recorded.needs_grad()) << where;
  const double expected = recorded.value().At(0, 0);
  const double served = model.PredictValue(sample);
  EXPECT_TRUE(SameBits(expected, served))
      << where << ": " << expected << " vs " << served;
}

TEST_P(VariantSweep, PredictValueIsRecordedForEveryPrefixSize) {
  // Every prefix from one node (one reached row) to past padded_size (no
  // padding row, truncated), with cascades longer than
  // max_sequence_length in between.
  const CascadeSample full = GrowingSample(16, 5);
  for (const bool attention : {false, true}) {
    CascnConfig config = TinyCascnConfig();
    config.variant = GetParam();
    config.attention_pooling = attention;
    ASSERT_LT(config.padded_size, full.observed.size());
    ASSERT_LT(config.max_sequence_length, config.padded_size);
    CascnModel model(config);
    model.set_output_offset(0.3);
    for (int size = 1; size <= full.observed.size(); ++size) {
      CascadeSample prefix = full;
      prefix.observed = full.observed.PrefixBySize(size);
      ExpectServedIsRecorded(model, prefix,
                             "attention=" + std::to_string(attention) +
                                 " size=" + std::to_string(size));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, VariantSweep,
    ::testing::Values(CascnVariant::kDefault, CascnVariant::kGru,
                      CascnVariant::kGcnLstm, CascnVariant::kUndirected,
                      CascnVariant::kNoTimeDecay));

/// The parameter of `model` called `name`.
ag::Variable NamedParameter(const CascnModel& model, const std::string& name) {
  for (const auto& [param_name, p] : model.NamedParameters())
    if (param_name == name) return p;
  return ag::Variable();
}

/// Moves a graph LSTM's padding rows off the zero state: with b_c = 0 (its
/// initial value) their memory cell never leaves zero, whatever the other
/// row-local parameters are.
void SetCandidateBias(const CascnModel& model, double value) {
  ag::Variable b_c = NamedParameter(model, "conv_lstm.b_c");
  ASSERT_TRUE(b_c.defined());
  b_c.mutable_value().Fill(value);
}

/// The padding table of the fused forward must follow every change to the
/// row-local parameters: a direct edit of one peephole (GRU: one bias) on
/// a row the sample's basis never reaches, an Adam step, and a checkpoint
/// loaded into the live model.
TEST(CascnModelTest, FusedForwardFollowsWeightChanges) {
  for (const CascnVariant variant :
       {CascnVariant::kDefault, CascnVariant::kGru}) {
    const bool gru = variant == CascnVariant::kGru;
    CascnConfig config = TinyCascnConfig();
    config.variant = variant;
    CascnModel model(config);
    if (!gru) SetCandidateBias(model, 0.5);
    const CascadeSample sample = GrowingSample(4, 9);
    ExpectServedIsRecorded(model, sample, VariantName(variant) + " initial");

    const double before = model.PredictValue(sample);
    ag::Variable edited =
        NamedParameter(model, gru ? "conv_gru.b_n" : "conv_lstm.v_i");
    ASSERT_TRUE(edited.defined());
    edited.mutable_value().At(edited.rows() - 1, 0) += 0.25;
    ExpectServedIsRecorded(model, sample, VariantName(variant) + " edit");
    EXPECT_NE(model.PredictValue(sample), before) << "the edit changed nothing";

    nn::Adam adam(model.Parameters(), nn::Adam::Options{});
    nn::SquaredError(model.PredictLogCalibrated(sample), 1.0).Backward();
    adam.Step();
    ExpectServedIsRecorded(model, sample, VariantName(variant) + " Adam");

    CascnConfig other_config = config;
    other_config.seed = 4242;
    CascnModel other(other_config);
    if (!gru) SetCandidateBias(other, -0.5);
    const std::string path = ::testing::TempDir() + "cascn_fused_" +
                             std::to_string(static_cast<int>(variant)) +
                             ".ckpt";
    ASSERT_TRUE(serve::SaveCascnCheckpoint(path, other).ok());
    ASSERT_TRUE(
        serve::LoadCheckpointIntoFile(path, serve::kCascnModelType, model)
            .ok());
    ExpectServedIsRecorded(model, sample, VariantName(variant) + " load");
    auto loaded = serve::LoadCascnCheckpoint(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(SameBits((*loaded)->PredictValue(sample),
                         model.PredictValue(sample)));
  }
}

/// Four threads serving one model share its padding table, including the
/// rebuild after the weights change between two rounds.
TEST(CascnModelTest, ConcurrentPredictValueAcrossAWeightChange) {
  CascnModel model(TinyCascnConfig());
  SetCandidateBias(model, 0.5);
  std::vector<CascadeSample> samples;
  for (int size = 1; size <= 14; ++size)
    samples.push_back(GrowingSample(size, 100 + size));
  auto serve_round = [&](const std::string& round) {
    std::vector<double> expected;
    for (const CascadeSample& sample : samples)
      expected.push_back(model.PredictLogCalibrated(sample).value().At(0, 0));
    std::vector<int> mismatches(4, 0);
    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w) {
      threads.emplace_back([&, w] {
        for (int rep = 0; rep < 3; ++rep)
          for (size_t i = 0; i < samples.size(); ++i) {
            const size_t k = (i + w * 3) % samples.size();
            if (!SameBits(model.PredictValue(samples[k]), expected[k]))
              ++mismatches[w];
          }
      });
    }
    for (std::thread& t : threads) t.join();
    for (int w = 0; w < 4; ++w)
      EXPECT_EQ(mismatches[w], 0) << round << " thread " << w;
  };
  serve_round("before");
  const double before = model.PredictValue(samples[0]);
  for (const char* name : {"conv_lstm.b_o", "conv_lstm.v_f"}) {
    ag::Variable p = NamedParameter(model, name);
    ASSERT_TRUE(p.defined()) << name;
    p.mutable_value().At(p.rows() - 1, p.cols() - 1) -= 0.5;
  }
  serve_round("after");
  EXPECT_NE(model.PredictValue(samples[0]), before);
}

/// A recorded forward and its Backward() for one sample, under a gradient
/// sink as the trainer runs it: the loss and every parameter gradient.
struct RecordedPass {
  double loss = 0.0;
  std::vector<Tensor> grads;
};

RecordedPass RecordPass(CascnModel& model, const CascadeSample& sample) {
  ag::GradSink sink;
  RecordedPass pass;
  {
    const ag::Variable loss =
        nn::SquaredError(model.PredictLogCalibrated(sample), 1.5);
    pass.loss = loss.value().At(0, 0);
    ag::ScopedGradCapture capture(&sink);
    loss.Backward();
  }
  model.ZeroGrad();
  sink.Flush();
  for (const ag::Variable& p : model.Parameters())
    pass.grads.push_back(p.grad());
  model.ZeroGrad();
  return pass;
}

void ExpectSamePass(const RecordedPass& got, const RecordedPass& want,
                    const std::string& where) {
  EXPECT_TRUE(SameBits(got.loss, want.loss)) << where;
  ASSERT_EQ(got.grads.size(), want.grads.size()) << where;
  for (size_t i = 0; i < want.grads.size(); ++i) {
    ASSERT_TRUE(got.grads[i].SameShape(want.grads[i])) << where << " " << i;
    EXPECT_EQ(std::memcmp(got.grads[i].data(), want.grads[i].data(),
                          want.grads[i].size() * sizeof(double)),
              0)
        << where << " gradient " << i;
  }
}

/// The same model built afresh from `model`'s current weights.
std::unique_ptr<CascnModel> FreshCopy(const CascnModel& model) {
  auto fresh = std::make_unique<CascnModel>(model.config());
  FrameWriter weights;
  model.Save(weights);
  FrameReader in(weights.bytes());
  EXPECT_TRUE(fresh->Load(in).ok());
  fresh->set_output_offset(model.output_offset());
  return fresh;
}

/// Training reads the padding table too, and only training edits weights
/// between passes: after a recorded pass, an edit to a row-local parameter
/// on a padding row, to a bias and to an X filter must reach the next
/// recorded pass, whose value and gradients equal a fresh model's.
TEST(CascnModelTest, RecordedForwardFollowsWeightChanges) {
  for (const CascnVariant variant :
       {CascnVariant::kDefault, CascnVariant::kGru}) {
    const bool gru = variant == CascnVariant::kGru;
    CascnConfig config = TinyCascnConfig();
    config.variant = variant;
    CascnModel model(config);
    model.set_output_offset(0.4);
    if (!gru) SetCandidateBias(model, 0.5);
    const CascadeSample sample = GrowingSample(4, 9);
    RecordedPass before = RecordPass(model, sample);
    const std::vector<std::string> edits =
        gru ? std::vector<std::string>{"conv_gru.b_n", "conv_gru.b_z",
                                       "conv_gru.conv_x_n.w0"}
            : std::vector<std::string>{"conv_lstm.v_i", "conv_lstm.b_f",
                                       "conv_lstm.conv_x_i.w0"};
    for (const std::string& name : edits) {
      ag::Variable p = NamedParameter(model, name);
      ASSERT_TRUE(p.defined()) << name;
      // A peephole's last row is a padding row of the 4-node sample; an X
      // filter's first row multiplies the root's column of P.
      const bool filter = name.find(".w0") != std::string::npos;
      p.mutable_value().At(filter ? 0 : p.rows() - 1, 0) += 0.25;
      const RecordedPass edited = RecordPass(model, sample);
      EXPECT_NE(edited.loss, before.loss) << "editing " << name;
      const std::unique_ptr<CascnModel> fresh = FreshCopy(model);
      ExpectSamePass(edited, RecordPass(*fresh, sample),
                     VariantName(variant) + " after editing " + name);
      before = edited;
    }
  }
}

/// Two threads training on one model share its padding table, including
/// the rebuild after the weights change between two rounds: each recorded
/// pass equals the serial one, bit for bit.
TEST(CascnModelTest, ConcurrentRecordedPassesAcrossAWeightChange) {
  CascnModel model(TinyCascnConfig());
  model.set_output_offset(0.2);
  SetCandidateBias(model, 0.5);
  std::vector<CascadeSample> samples;
  for (int size = 1; size <= 14; ++size)
    samples.push_back(GrowingSample(size, 200 + size));
  auto train_round = [&](const std::string& round) {
    std::vector<RecordedPass> expected;
    for (const CascadeSample& sample : samples)
      expected.push_back(RecordPass(model, sample));
    // Each thread records and backpropagates into its own sinks; the
    // gradients are compared after the threads join.
    std::vector<std::vector<std::pair<double, ag::GradSink>>> sinks(2);
    std::vector<std::thread> threads;
    for (int w = 0; w < 2; ++w) {
      threads.emplace_back([&, w] {
        for (int rep = 0; rep < 2; ++rep)
          for (size_t i = 0; i < samples.size(); ++i) {
            const size_t k = (i + w * 5) % samples.size();
            auto& [loss_value, sink] = sinks[w].emplace_back();
            const ag::Variable loss =
                nn::SquaredError(model.PredictLogCalibrated(samples[k]), 1.5);
            loss_value = loss.value().At(0, 0);
            ag::ScopedGradCapture capture(&sink);
            loss.Backward();
          }
      });
    }
    for (std::thread& t : threads) t.join();
    for (int w = 0; w < 2; ++w) {
      for (size_t j = 0; j < sinks[w].size(); ++j) {
        const size_t k = (j % samples.size() + w * 5) % samples.size();
        RecordedPass pass;
        pass.loss = sinks[w][j].first;
        model.ZeroGrad();
        sinks[w][j].second.Flush();
        for (const ag::Variable& p : model.Parameters())
          pass.grads.push_back(p.grad());
        ExpectSamePass(pass, expected[k],
                       round + " thread " + std::to_string(w) + " pass " +
                           std::to_string(j));
      }
    }
    model.ZeroGrad();
  };
  train_round("before");
  for (const char* name : {"conv_lstm.b_o", "conv_lstm.v_f"}) {
    ag::Variable p = NamedParameter(model, name);
    ASSERT_TRUE(p.defined()) << name;
    p.mutable_value().At(p.rows() - 1, p.cols() - 1) -= 0.5;
  }
  train_round("after");
}

TEST(CascnModelTest, RepresentationHasHiddenWidth) {
  const CascadeDataset dataset = TinyDataset();
  CascnConfig config = TinyCascnConfig();
  CascnModel model(config);
  const Tensor rep = model.Representation(dataset.train[0]);
  EXPECT_EQ(rep.rows(), 1);
  EXPECT_EQ(rep.cols(), config.hidden_dim);
}

TEST(CascnModelTest, EncodingIsCachedAcrossCalls) {
  const CascadeDataset dataset = TinyDataset();
  CascnModel model(TinyCascnConfig());
  const double first = model.PredictLog(dataset.train[0]).value().At(0, 0);
  const double second = model.PredictLog(dataset.train[0]).value().At(0, 0);
  EXPECT_DOUBLE_EQ(first, second);
  model.ClearCache();
  const double third = model.PredictLog(dataset.train[0]).value().At(0, 0);
  EXPECT_DOUBLE_EQ(first, third);
}

TEST(CascnModelTest, CacheSurvivesHeapAddressReuse) {
  // Regression: the encoding cache used to be keyed by sample address, so a
  // different cascade constructed at a recycled address silently reused the
  // previous cascade's encoding (exactly what per-update streaming sample
  // allocation produces). Content-fingerprint keys must not care about
  // addresses.
  const CascadeDataset dataset = TinyDataset();
  CascnModel model(TinyCascnConfig());
  const double truth0 = model.PredictLog(dataset.train[0]).value().At(0, 0);
  const double truth1 = model.PredictLog(dataset.train[1]).value().At(0, 0);
  ASSERT_NE(truth0, truth1);
  model.ClearCache();

  alignas(CascadeSample) unsigned char storage[sizeof(CascadeSample)];
  auto* first = new (storage) CascadeSample(dataset.train[0]);
  EXPECT_DOUBLE_EQ(model.PredictLog(*first).value().At(0, 0), truth0);
  first->~CascadeSample();
  // A different cascade at the very same address must get its own encoding.
  auto* second = new (storage) CascadeSample(dataset.train[1]);
  EXPECT_DOUBLE_EQ(model.PredictLog(*second).value().At(0, 0), truth1);
  second->~CascadeSample();
}

TEST(CascnModelTest, EncodingCacheIsBoundedWithLruEviction) {
  const CascadeDataset dataset = TinyDataset();
  CascnConfig config = TinyCascnConfig();
  config.encoding_cache_capacity = 4;
  CascnModel model(config);
  const size_t n = std::min<size_t>(10, dataset.train.size());
  ASSERT_GT(n, 4u);
  for (size_t i = 0; i < n; ++i) model.PredictLog(dataset.train[i]);
  EXPECT_EQ(model.EncodingCacheSize(), 4u);
  // Evicted entries are simply recomputed, with identical results.
  EXPECT_DOUBLE_EQ(model.PredictLog(dataset.train[0]).value().At(0, 0),
                   model.PredictLog(dataset.train[0]).value().At(0, 0));
}

TEST(CascnModelTest, RecordedForwardOutlivesItsEncodingsEviction) {
  // A recorded step holds the cached encoding's operators until Backward();
  // evicting the entry first must change nothing.
  const CascadeDataset dataset = TinyDataset();
  for (const CascnVariant variant :
       {CascnVariant::kDefault, CascnVariant::kGru, CascnVariant::kGcnLstm}) {
    CascnConfig config = TinyCascnConfig();
    config.variant = variant;
    config.encoding_cache_capacity = 1;
    CascnModel kept(config), evicted(config);
    ag::Square(kept.PredictLog(dataset.train[0])).Backward();
    const ag::Variable loss = ag::Square(evicted.PredictLog(dataset.train[0]));
    evicted.PredictLog(dataset.train[1]);  // evicts train[0]'s encoding
    evicted.ClearCache();
    loss.Backward();
    const auto want = kept.NamedParameters();
    const auto got = evicted.NamedParameters();
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      const Tensor& a = want[i].second.grad();
      const Tensor& b = got[i].second.grad();
      ASSERT_TRUE(a.SameShape(b))
          << VariantName(variant) << " " << want[i].first;
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
          << VariantName(variant) << " " << want[i].first;
    }
  }
}

TEST(CascnModelTest, EncodedLambdaMaxModes) {
  const CascadeDataset dataset = TinyDataset();
  CascnConfig config = TinyCascnConfig();
  config.lambda_mode = LambdaMaxMode::kApproximateTwo;
  CascnModel approx(config);
  EXPECT_DOUBLE_EQ(approx.EncodedLambdaMax(dataset.train[0]), 2.0);
  config.lambda_mode = LambdaMaxMode::kExact;
  CascnModel exact(config);
  EXPECT_GT(exact.EncodedLambdaMax(dataset.train[0]), 0.0);
}

TEST(CascnModelTest, NoTimeDecayVariantHasNoDecayParameter) {
  CascnConfig config = TinyCascnConfig();
  config.variant = CascnVariant::kNoTimeDecay;
  CascnModel model(config);
  for (const auto& [name, p] : model.NamedParameters())
    EXPECT_EQ(name.find("decay"), std::string::npos) << name;
}

TEST(CascnModelTest, SaveLoadRoundTripPreservesPredictions) {
  const CascadeDataset dataset = TinyDataset();
  CascnConfig config = TinyCascnConfig();
  CascnModel original(config);
  const double before = original.PredictLog(dataset.test[0]).value().At(0, 0);
  FrameWriter buffer;
  original.Save(buffer);
  config.seed = 31337;  // different init
  CascnModel restored(config);
  FrameReader in(buffer.bytes());
  ASSERT_TRUE(restored.Load(in).ok());
  EXPECT_DOUBLE_EQ(restored.PredictLog(dataset.test[0]).value().At(0, 0),
                   before);
}

TEST(CascnModelTest, AttentionPoolingExtensionWorks) {
  const CascadeDataset dataset = TinyDataset();
  CascnConfig config = TinyCascnConfig();
  config.attention_pooling = true;
  CascnModel model(config);
  const ag::Variable pred = model.PredictLog(dataset.train[0]);
  EXPECT_TRUE(std::isfinite(pred.value().At(0, 0)));
  ag::Square(pred).Backward();
  bool attn_has_grad = false;
  for (const auto& [name, p] : model.NamedParameters()) {
    if (name == "attn_w" || name == "attn_v") {
      attn_has_grad = attn_has_grad || !p.grad().empty();
    }
  }
  EXPECT_TRUE(attn_has_grad);
  // Differs from the sum-pooled model.
  config.attention_pooling = false;
  CascnModel plain(config);
  EXPECT_NE(pred.value().At(0, 0),
            plain.PredictLog(dataset.train[0]).value().At(0, 0));
}

TEST(CascnPathModelTest, PredictsAndBackprops) {
  const CascadeDataset dataset = TinyDataset();
  CascnPathConfig config;
  config.user_universe = 200;
  config.embedding_dim = 6;
  config.hidden_dim = 5;
  config.num_walks = 4;
  config.walk_length = 5;
  CascnPathModel model(config);
  EXPECT_EQ(model.name(), "CasCN-Path");
  const ag::Variable pred = model.PredictLog(dataset.train[0]);
  EXPECT_TRUE(std::isfinite(pred.value().At(0, 0)));
  ag::Square(pred).Backward();
  int with_grad = 0;
  for (const auto& p : model.Parameters())
    if (!p.grad().empty()) ++with_grad;
  EXPECT_GT(with_grad, 0);
}

TEST(CascnPathModelTest, WalksCachedDeterministically) {
  const CascadeDataset dataset = TinyDataset();
  CascnPathConfig config;
  config.user_universe = 200;
  CascnPathModel model(config);
  const double a = model.PredictLog(dataset.train[2]).value().At(0, 0);
  const double b = model.PredictLog(dataset.train[2]).value().At(0, 0);
  EXPECT_DOUBLE_EQ(a, b);
  model.ClearCache();
  // Walks are reseeded from the cascade id, so the prediction is unchanged.
  EXPECT_DOUBLE_EQ(model.PredictLog(dataset.train[2]).value().At(0, 0), a);
}

}  // namespace
}  // namespace cascn

#include "serve/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "../testing/hex.h"
#include "../testing/test_data.h"
#include "common/crc32.h"
#include "baselines/deepcas_model.h"
#include "baselines/deephawkes_model.h"
#include "baselines/feature_deep.h"
#include "baselines/lis_model.h"
#include "baselines/node2vec_model.h"
#include "baselines/topolstm_model.h"
#include "core/cascn_path_model.h"

namespace cascn::serve {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "cascn_ckpt_" + name + ".bin";
}

/// Asserts every parameter of `loaded` is bit-identical to `saved`.
void ExpectParametersIdentical(const nn::Module& saved,
                               const nn::Module& loaded) {
  const auto a = saved.NamedParameters();
  const auto b = loaded.NamedParameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].first);
    EXPECT_EQ(a[i].first, b[i].first);
    const Tensor& ta = a[i].second.value();
    const Tensor& tb = b[i].second.value();
    ASSERT_EQ(ta.rows(), tb.rows());
    ASSERT_EQ(ta.cols(), tb.cols());
    EXPECT_EQ(std::memcmp(ta.data(), tb.data(),
                          sizeof(double) * static_cast<size_t>(ta.size())),
              0);
  }
}

/// Round-trips `saved` through a checkpoint file into `loaded` (same
/// architecture, different initialisation) and checks bit-identity plus
/// offset restoration.
template <typename ModelT>
void ExpectRoundTrip(const std::string& tag, ModelT& saved, ModelT& loaded) {
  saved.set_output_offset(1.25);
  const std::string path = TempPath(tag);
  ASSERT_TRUE(
      WriteCheckpointFile(path, tag, "", saved, saved.output_offset()).ok());
  CheckpointHeader header;
  ASSERT_TRUE(LoadCheckpointIntoFile(path, tag, loaded, &header).ok());
  loaded.set_output_offset(header.output_offset);
  EXPECT_EQ(header.model_type, tag);
  EXPECT_DOUBLE_EQ(loaded.output_offset(), 1.25);
  ExpectParametersIdentical(saved, loaded);
  std::remove(path.c_str());
}

TEST(CheckpointRoundTripTest, CascnAllVariants) {
  for (CascnVariant variant :
       {CascnVariant::kDefault, CascnVariant::kGru, CascnVariant::kGcnLstm,
        CascnVariant::kUndirected, CascnVariant::kNoTimeDecay}) {
    SCOPED_TRACE(VariantName(variant));
    CascnConfig config = testing::TinyCascnConfig();
    config.variant = variant;
    config.seed = 1;
    CascnModel saved(config);
    config.seed = 2;
    CascnModel loaded(config);
    ExpectRoundTrip("cascn-test", saved, loaded);
  }
}

TEST(CheckpointRoundTripTest, CascnPath) {
  CascnPathConfig config;
  config.user_universe = 100;
  config.seed = 1;
  CascnPathModel saved(config);
  config.seed = 2;
  CascnPathModel loaded(config);
  ExpectRoundTrip("cascn-path", saved, loaded);
}

TEST(CheckpointRoundTripTest, DeepBaselines) {
  {
    DeepCasModel::Config config;
    config.user_universe = 100;
    config.seed = 1;
    DeepCasModel saved(config);
    config.seed = 2;
    DeepCasModel loaded(config);
    ExpectRoundTrip("deepcas", saved, loaded);
  }
  {
    TopoLstmModel::Config config;
    config.user_universe = 100;
    config.seed = 1;
    TopoLstmModel saved(config);
    config.seed = 2;
    TopoLstmModel loaded(config);
    ExpectRoundTrip("topolstm", saved, loaded);
  }
  {
    DeepHawkesModel::Config config;
    config.user_universe = 100;
    config.seed = 1;
    DeepHawkesModel saved(config);
    config.seed = 2;
    DeepHawkesModel loaded(config);
    ExpectRoundTrip("deephawkes", saved, loaded);
  }
  {
    FeatureDeepModel::Config config;
    config.seed = 1;
    FeatureDeepModel saved(config);
    config.seed = 2;
    FeatureDeepModel loaded(config);
    ExpectRoundTrip("feature-deep", saved, loaded);
  }
  {
    LisModel::Config config;
    config.user_universe = 100;
    config.seed = 1;
    LisModel saved(config);
    config.seed = 2;
    LisModel loaded(config);
    ExpectRoundTrip("lis", saved, loaded);
  }
  {
    Node2VecModel::Config config;
    config.user_universe = 100;
    config.seed = 1;
    Node2VecModel saved(config);
    config.seed = 2;
    Node2VecModel loaded(config);
    ExpectRoundTrip("node2vec", saved, loaded);
  }
}

TEST(CheckpointCascnTest, SaveLoadRestoresConfigAndPredictions) {
  const CascadeDataset dataset = testing::TinyDataset();
  CascnConfig config = testing::TinyCascnConfig();
  config.variant = CascnVariant::kGru;
  CascnModel model(config);
  model.set_output_offset(2.5);

  const std::string path = TempPath("cascn-full");
  ASSERT_TRUE(SaveCascnCheckpoint(path, model).ok());
  auto loaded = LoadCascnCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ((*loaded)->config().variant, CascnVariant::kGru);
  EXPECT_EQ((*loaded)->config().padded_size, config.padded_size);
  EXPECT_EQ((*loaded)->config().hidden_dim, config.hidden_dim);
  EXPECT_DOUBLE_EQ((*loaded)->output_offset(), 2.5);

  const CascadeSample& sample = dataset.test[0];
  const double original = model.PredictLogCalibrated(sample).value().At(0, 0);
  const double reloaded =
      (*loaded)->PredictLogCalibrated(sample).value().At(0, 0);
  EXPECT_DOUBLE_EQ(original, reloaded);
  std::remove(path.c_str());
}

TEST(CheckpointCascnTest, ConfigTextRoundTrip) {
  CascnConfig config;
  config.variant = CascnVariant::kUndirected;
  config.padded_size = 17;
  config.hidden_dim = 5;
  config.attention_pooling = true;
  config.lambda_mode = LambdaMaxMode::kApproximateTwo;
  config.caslaplacian_alpha = 0.77;
  config.seed = 1234;
  auto parsed = ParseCascnConfig(EncodeCascnConfig(config));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->variant, CascnVariant::kUndirected);
  EXPECT_EQ(parsed->padded_size, 17);
  EXPECT_EQ(parsed->hidden_dim, 5);
  EXPECT_TRUE(parsed->attention_pooling);
  EXPECT_EQ(parsed->lambda_mode, LambdaMaxMode::kApproximateTwo);
  EXPECT_DOUBLE_EQ(parsed->caslaplacian_alpha, 0.77);
  EXPECT_EQ(parsed->seed, 1234u);
}

TEST(CheckpointCascnTest, ConfigParserRejectsUnknownKeysAndGarbage) {
  EXPECT_FALSE(ParseCascnConfig("nonsense_key=3\n").ok());
  EXPECT_FALSE(ParseCascnConfig("hidden_dim=abc\n").ok());
  EXPECT_FALSE(ParseCascnConfig("no equals sign\n").ok());
  EXPECT_FALSE(ParseCascnConfig("variant=99\n").ok());
}

/// Values no model can run with fail at parse time, each with
/// InvalidArgument, instead of reaching a check on the first predict.
TEST(CheckpointCascnTest, ConfigParserRejectsValuesNoModelRunsWith) {
  const std::string valid = EncodeCascnConfig(CascnConfig());
  ASSERT_TRUE(ParseCascnConfig(valid).ok());
  for (const char* line :
       {"caslaplacian_alpha=1", "caslaplacian_alpha=0",
        "caslaplacian_alpha=-0.5", "caslaplacian_alpha=1.5",
        "caslaplacian_alpha=nan", "padded_size=0", "padded_size=-3",
        "padded_size=4294967297", "hidden_dim=0", "cheb_order=0",
        "max_sequence_length=0", "num_time_intervals=0", "mlp_hidden1=0",
        "mlp_hidden2=-1"}) {
    // A later line overrides the valid one.
    const auto parsed = ParseCascnConfig(valid + line + "\n");
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
  for (const char* line :
       {"caslaplacian_alpha=0.999", "caslaplacian_alpha=1e-9",
        "padded_size=1", "cheb_order=1", "max_sequence_length=1",
        "num_time_intervals=1", "hidden_dim=1"}) {
    EXPECT_TRUE(ParseCascnConfig(valid + line + "\n").ok()) << line;
  }
}

TEST(CheckpointFormatTest, TinyCascnBytesArePinned) {
  // Checkpoint format version 2: the header byte for byte, the length, and
  // the trailing CRC-32, which covers every parameter byte in between. A
  // model saved by one build is served by another, so none of it may drift.
  CascnModel model(testing::TinyCascnConfig());
  model.set_output_offset(0.5);
  const std::string path = TempPath("pinned");
  ASSERT_TRUE(SaveCascnCheckpoint(path, model).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  const std::string config_text =
      "variant=0\npadded_size=12\nhidden_dim=6\ncheb_order=2\n"
      "max_sequence_length=6\nnum_time_intervals=4\nmlp_hidden1=8\n"
      "mlp_hidden2=4\nattention_pooling=0\nlambda_mode=0\n"
      "caslaplacian_alpha=0.84999999999999998\nseed=42\n"
      "encoding_cache_capacity=8192\n";
  const size_t config_end = 17 + 4 + config_text.size();
  ASSERT_GT(bytes.size(), config_end + 8 + 8);
  EXPECT_EQ(testing::Hex(bytes.substr(0, 21)),
            "4353434e" "02000000"    // magic "CSCN", version 2
            "05000000" "636173636e"  // model type "cascn"
            "e8000000");             // config block length
  EXPECT_EQ(bytes.substr(21, config_text.size()), config_text);
  EXPECT_EQ(testing::Hex(bytes.substr(config_end, 16)),
            "000000000000e03f"    // output offset 0.5
            "1e00000000000000");  // 30 parameters follow
  EXPECT_EQ(bytes.size(), 10929u);
  EXPECT_EQ(testing::Hex(bytes.substr(bytes.size() - 8)),
            "454e444e"   // footer "ENDN"
            "d7f8d2a6");  // CRC-32 of every earlier byte
}

class CheckpointCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("corruption");
    CascnConfig config = testing::TinyCascnConfig();
    model_ = std::make_unique<CascnModel>(config);
    ASSERT_TRUE(SaveCascnCheckpoint(path_, *model_).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string ReadAll() {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }
  void WriteAll(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
  std::unique_ptr<CascnModel> model_;
};

TEST_F(CheckpointCorruptionTest, MissingFileIsIoError) {
  auto result = LoadCascnCheckpoint(path_ + ".does-not-exist");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(CheckpointCorruptionTest, GarbageMagicIsRejected) {
  WriteAll("this is definitely not a checkpoint file, not even close");
  auto result = LoadCascnCheckpoint(path_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointCorruptionTest, UnsupportedVersionIsRejected) {
  std::string bytes = ReadAll();
  const uint32_t bogus_version = 999;
  std::memcpy(bytes.data() + sizeof(uint32_t), &bogus_version,
              sizeof(bogus_version));
  // Recompute the trailing CRC so the version check itself is exercised
  // rather than the checksum guard.
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - sizeof(uint32_t));
  std::memcpy(bytes.data() + bytes.size() - sizeof(uint32_t), &crc,
              sizeof(crc));
  WriteAll(bytes);
  auto result = LoadCascnCheckpoint(path_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, VersionPatchedWithoutCrcFixIsCorruption) {
  // A v2 file whose version field is damaged (without a matching CRC) is
  // indistinguishable from bit rot and must be rejected as corrupt.
  std::string bytes = ReadAll();
  const uint32_t bogus_version = 1;
  std::memcpy(bytes.data() + sizeof(uint32_t), &bogus_version,
              sizeof(bogus_version));
  WriteAll(bytes);
  auto result = LoadCascnCheckpoint(path_);
  ASSERT_FALSE(result.ok());
}

TEST_F(CheckpointCorruptionTest, TruncationsAtEveryRegionAreRejected) {
  const std::string bytes = ReadAll();
  // Header, config block, parameter payload, and footer truncations.
  for (size_t keep :
       {size_t{2}, size_t{10}, bytes.size() / 2, bytes.size() - 1}) {
    SCOPED_TRACE(keep);
    WriteAll(bytes.substr(0, keep));
    EXPECT_FALSE(LoadCascnCheckpoint(path_).ok());
  }
}

TEST_F(CheckpointCorruptionTest, WrongModelTypeIsRejected) {
  CascnConfig config = testing::TinyCascnConfig();
  CascnModel model(config);
  ASSERT_TRUE(WriteCheckpointFile(path_, "some-other-model",
                                  EncodeCascnConfig(config), model, 0.0)
                  .ok());
  auto result = LoadCascnCheckpoint(path_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("some-other-model"),
            std::string::npos);
}

/// A checkpoint whose config no model can run with (here alpha = 1, which
/// the CasLaplacian rejects on every encode) fails to load.
TEST_F(CheckpointCorruptionTest, ConfigNoModelRunsWithIsRejected) {
  CascnConfig config = testing::TinyCascnConfig();
  CascnModel model(config);
  config.caslaplacian_alpha = 1.0;
  ASSERT_TRUE(WriteCheckpointFile(path_, kCascnModelType,
                                  EncodeCascnConfig(config), model, 0.0)
                  .ok());
  auto result = LoadCascnCheckpoint(path_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("caslaplacian_alpha"),
            std::string::npos);
}

/// Every parameter value of `module`, to compare after a failed load.
std::vector<Tensor> Values(const nn::Module& module) {
  std::vector<Tensor> values;
  for (const auto& [name, p] : module.NamedParameters())
    values.push_back(p.value());
  return values;
}

/// Asserts `module` still holds exactly `before`, bit for bit.
void ExpectUnchanged(const nn::Module& module,
                     const std::vector<Tensor>& before) {
  const std::vector<Tensor> after = Values(module);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(after[i].SameShape(before[i]));
    EXPECT_EQ(std::memcmp(after[i].data(), before[i].data(),
                          sizeof(double) * static_cast<size_t>(after[i].size())),
              0);
  }
}

TEST_F(CheckpointCorruptionTest, ShapeMismatchIsRejected) {
  CascnConfig other = testing::TinyCascnConfig();
  other.hidden_dim += 2;  // same parameter names, different shapes
  CascnModel destination(other);
  EXPECT_FALSE(
      LoadCheckpointIntoFile(path_, kCascnModelType, destination).ok());

  // A mismatch past the first parameter: every parameter before it reads
  // fine, and none of them may be written.
  CascnConfig late = testing::TinyCascnConfig();
  late.mlp_hidden2 += 1;  // only the last MLP layers change shape
  late.seed = 7;          // so an overwritten parameter would show
  CascnModel partial(late);
  const std::vector<Tensor> before = Values(partial);
  EXPECT_EQ(LoadCheckpointIntoFile(path_, kCascnModelType, partial).code(),
            StatusCode::kInvalidArgument);
  ExpectUnchanged(partial, before);
}

TEST_F(CheckpointCorruptionTest, FailedVersionOneLoadLeavesModuleUntouched) {
  // A v1 file has no CRC, so the parse itself must catch the damage, and
  // must do so before it writes a parameter.
  std::string v1 = ReadAll();
  v1.resize(v1.size() - sizeof(uint32_t));
  const uint32_t version = 1;
  std::memcpy(v1.data() + sizeof(uint32_t), &version, sizeof(version));
  std::string bad_footer = v1;
  bad_footer[bad_footer.size() - 1] ^= 0x01;

  CascnConfig config = testing::TinyCascnConfig();
  config.seed = 7;  // differs from the file, so an overwrite would show
  CascnModel destination(config);
  const std::vector<Tensor> before = Values(destination);
  for (const std::string& image :
       {v1.substr(0, v1.size() * 3 / 4), v1.substr(0, v1.size() - 2),
        bad_footer}) {
    SCOPED_TRACE(image.size());
    WriteAll(image);
    EXPECT_EQ(
        LoadCheckpointIntoFile(path_, kCascnModelType, destination).code(),
        StatusCode::kIoError);
    ExpectUnchanged(destination, before);
  }
  // The undamaged v1 image loads into the same module.
  WriteAll(v1);
  EXPECT_TRUE(LoadCheckpointIntoFile(path_, kCascnModelType, destination).ok());
  ExpectParametersIdentical(*model_, destination);
}

}  // namespace
}  // namespace cascn::serve

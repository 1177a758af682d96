#include <cmath>
#include <optional>

#include <gtest/gtest.h>

#include "../testing/test_data.h"
#include "baselines/lis_model.h"
#include "baselines/node2vec_model.h"
#include "core/trainer.h"

namespace cascn {
namespace {

using testing::TinyDataset;
using testing::TinyTrainerOptions;

TEST(LisModelTest, PredictsScalarAndBackprops) {
  const CascadeDataset dataset = TinyDataset();
  LisModel::Config config;
  config.user_universe = 200;
  config.latent_dim = 4;
  LisModel model(config);
  EXPECT_EQ(model.name(), "LIS");
  const ag::Variable pred = model.PredictLog(dataset.train[0]);
  EXPECT_EQ(pred.rows(), 1);
  EXPECT_EQ(pred.cols(), 1);
  ag::Square(pred).Backward();
  int with_grad = 0;
  for (const auto& p : model.Parameters())
    if (!p.grad().empty()) ++with_grad;
  EXPECT_GE(with_grad, 2);  // embeddings + head
}

TEST(LisModelTest, HandlesRootOnlyCascade) {
  LisModel::Config config;
  config.user_universe = 50;
  LisModel model(config);
  CascadeSample sample;
  sample.observed = std::move(Cascade::Create("lone", {{0, 7, {}, 0.0}})).value();
  sample.observation_window = 60.0;
  EXPECT_TRUE(
      std::isfinite(model.PredictLog(sample).value().At(0, 0)));
}

TEST(LisModelTest, TrainingReducesLoss) {
  const CascadeDataset dataset = TinyDataset();
  LisModel::Config config;
  config.user_universe = 200;
  LisModel model(config);
  const TrainResult result =
      TrainRegressor(model, dataset, TinyTrainerOptions(6));
  ASSERT_GE(result.history.size(), 2u);
  EXPECT_LT(result.history.back().train_loss,
            result.history.front().train_loss);
}

TEST(Node2VecModelTest, PretrainThenPredict) {
  const CascadeDataset dataset = TinyDataset();
  Node2VecModel::Config config;
  config.user_universe = 200;
  config.embedding_dim = 6;
  config.sgns_epochs = 1;
  Node2VecModel model(config);
  EXPECT_EQ(model.name(), "Node2Vec");
  model.PretrainEmbeddings(dataset.train);
  EXPECT_EQ(model.embeddings().rows(), 200);
  EXPECT_EQ(model.embeddings().cols(), 6);
  const ag::Variable pred = model.PredictLog(dataset.test[0]);
  EXPECT_TRUE(std::isfinite(pred.value().At(0, 0)));
}

TEST(Node2VecModelTest, PredictBeforePretrainDies) {
  const CascadeDataset dataset = TinyDataset();
  Node2VecModel model({});
  EXPECT_DEATH(model.PredictLog(dataset.test[0]), "Pretrain");
}

TEST(Node2VecModelTest, PretrainingMovesEmbeddings) {
  const CascadeDataset dataset = TinyDataset();
  Node2VecModel::Config config;
  config.user_universe = 200;
  config.embedding_dim = 6;
  config.sgns_epochs = 2;
  Node2VecModel model(config);
  model.PretrainEmbeddings(dataset.train);
  // After SGNS, the table departs from the tiny uniform init range.
  EXPECT_GT(model.embeddings().AbsMax(), 0.5 / 6 + 1e-6);
}

/// The representation cache is keyed by what a sample holds, not where it
/// lives: a second cascade emplaced into the first one's storage, as a live
/// cascade rebuilds its sample in place, gets its own representation.
TEST(Node2VecModelTest, RecycledAddressGetsTheNewSamplesRepresentation) {
  const CascadeDataset dataset = TinyDataset();
  Node2VecModel::Config config;
  config.user_universe = 200;
  config.embedding_dim = 6;
  config.sgns_epochs = 1;
  Node2VecModel model(config);
  model.PretrainEmbeddings(dataset.train);
  std::optional<CascadeSample> slot(dataset.test[0]);
  const CascadeSample* const address = &*slot;
  model.PredictLog(*slot);
  slot.emplace(dataset.test[1]);
  ASSERT_EQ(&*slot, address);
  Node2VecModel fresh(config);
  fresh.PretrainEmbeddings(dataset.train);
  EXPECT_EQ(model.PredictLog(*slot).value().At(0, 0),
            fresh.PredictLog(dataset.test[1]).value().At(0, 0));
}

TEST(Node2VecModelTest, OnlyHeadIsTrainable) {
  Node2VecModel model({});
  // The frozen embedding table is not among trainable parameters: only the
  // MLP (3 layers x 2 tensors).
  EXPECT_EQ(model.TrainableParameters().size(), 6u);
}

TEST(Node2VecModelTest, EndToEndTrainingImproves) {
  const CascadeDataset dataset = TinyDataset();
  Node2VecModel::Config config;
  config.user_universe = 200;
  config.embedding_dim = 6;
  config.sgns_epochs = 1;
  Node2VecModel model(config);
  model.PretrainEmbeddings(dataset.train);
  const double before = EvaluateMsle(model, dataset.validation);
  const TrainResult result =
      TrainRegressor(model, dataset, TinyTrainerOptions(6));
  EXPECT_LE(result.best_validation_msle, before);
}

}  // namespace
}  // namespace cascn

#include <cmath>
#include <optional>

#include <gtest/gtest.h>

#include "../testing/test_data.h"
#include "baselines/deepcas_model.h"
#include "baselines/deephawkes_model.h"
#include "baselines/topolstm_model.h"
#include "core/trainer.h"

namespace cascn {
namespace {

using testing::TinyDataset;
using testing::TinyTrainerOptions;

DeepCasModel::Config SmallDeepCas() {
  DeepCasModel::Config config;
  config.user_universe = 200;
  config.embedding_dim = 6;
  config.hidden_dim = 5;
  config.attention_dim = 4;
  config.walk_options.num_walks = 4;
  config.walk_options.walk_length = 5;
  return config;
}

TEST(DeepCasTest, PredictsAndBackprops) {
  const CascadeDataset dataset = TinyDataset();
  DeepCasModel model(SmallDeepCas());
  EXPECT_EQ(model.name(), "DeepCas");
  const ag::Variable pred = model.PredictLog(dataset.train[0]);
  EXPECT_TRUE(std::isfinite(pred.value().At(0, 0)));
  ag::Square(pred).Backward();
  for (const auto& [name, p] : model.NamedParameters())
    EXPECT_FALSE(p.grad().empty()) << name;
}

TEST(DeepCasTest, WalkCacheMakesPredictionsStable) {
  const CascadeDataset dataset = TinyDataset();
  DeepCasModel model(SmallDeepCas());
  const double a = model.PredictLog(dataset.train[1]).value().At(0, 0);
  EXPECT_DOUBLE_EQ(model.PredictLog(dataset.train[1]).value().At(0, 0), a);
  model.ClearCache();
  EXPECT_DOUBLE_EQ(model.PredictLog(dataset.train[1]).value().At(0, 0), a);
}

/// The walk cache is keyed by what a sample holds, not where it lives: a
/// second cascade emplaced into the first one's storage, as a live cascade
/// rebuilds its sample in place, gets its own walks.
TEST(DeepCasTest, RecycledAddressGetsTheNewSamplesWalks) {
  const CascadeDataset dataset = TinyDataset();
  DeepCasModel model(SmallDeepCas());
  std::optional<CascadeSample> slot(dataset.train[0]);
  const CascadeSample* const address = &*slot;
  model.PredictLog(*slot);
  slot.emplace(dataset.train[1]);
  ASSERT_EQ(&*slot, address);
  DeepCasModel fresh(SmallDeepCas());
  EXPECT_EQ(model.PredictLog(*slot).value().At(0, 0),
            fresh.PredictLog(dataset.train[1]).value().At(0, 0));
}

TEST(DeepCasTest, ShortTrainingReducesLoss) {
  const CascadeDataset dataset = TinyDataset();
  DeepCasModel model(SmallDeepCas());
  const TrainResult result =
      TrainRegressor(model, dataset, TinyTrainerOptions(4));
  ASSERT_GE(result.history.size(), 2u);
  EXPECT_LT(result.history.back().train_loss,
            result.history.front().train_loss);
}

DeepHawkesModel::Config SmallDeepHawkes() {
  DeepHawkesModel::Config config;
  config.user_universe = 200;
  config.embedding_dim = 6;
  config.hidden_dim = 5;
  config.num_time_intervals = 4;
  return config;
}

TEST(DeepHawkesTest, PredictsAndBackprops) {
  const CascadeDataset dataset = TinyDataset();
  DeepHawkesModel model(SmallDeepHawkes());
  EXPECT_EQ(model.name(), "DeepHawkes");
  const ag::Variable pred = model.PredictLog(dataset.train[0]);
  EXPECT_TRUE(std::isfinite(pred.value().At(0, 0)));
  ag::Square(pred).Backward();
  int with_grad = 0;
  for (const auto& p : model.Parameters())
    if (!p.grad().empty()) ++with_grad;
  EXPECT_GE(with_grad, 3);
}

TEST(DeepHawkesTest, DecayParameterReceivesGradient) {
  const CascadeDataset dataset = TinyDataset();
  DeepHawkesModel model(SmallDeepHawkes());
  ag::Square(model.PredictLog(dataset.train[0])).Backward();
  bool decay_found = false;
  for (const auto& [name, p] : model.NamedParameters()) {
    if (name == "decay_raw") {
      decay_found = true;
      EXPECT_FALSE(p.grad().empty());
    }
  }
  EXPECT_TRUE(decay_found);
}

TEST(DeepHawkesTest, ShortTrainingReducesLoss) {
  const CascadeDataset dataset = TinyDataset();
  DeepHawkesModel model(SmallDeepHawkes());
  const TrainResult result =
      TrainRegressor(model, dataset, TinyTrainerOptions(4));
  EXPECT_LT(result.history.back().train_loss,
            result.history.front().train_loss);
}

TopoLstmModel::Config SmallTopoLstm() {
  TopoLstmModel::Config config;
  config.user_universe = 200;
  config.embedding_dim = 6;
  config.hidden_dim = 5;
  return config;
}

TEST(TopoLstmTest, PredictsAndBackprops) {
  const CascadeDataset dataset = TinyDataset();
  TopoLstmModel model(SmallTopoLstm());
  EXPECT_EQ(model.name(), "Topo-LSTM");
  const ag::Variable pred = model.PredictLog(dataset.train[0]);
  EXPECT_TRUE(std::isfinite(pred.value().At(0, 0)));
  ag::Square(pred).Backward();
  for (const auto& [name, p] : model.NamedParameters())
    EXPECT_FALSE(p.grad().empty()) << name;
}

TEST(TopoLstmTest, HandlesMultiParentDags) {
  TopoLstmModel model(SmallTopoLstm());
  std::vector<AdoptionEvent> events = {
      {0, 1, {}, 0.0}, {1, 2, {0}, 1.0}, {2, 3, {0, 1}, 2.0},
      {3, 4, {1, 2}, 3.0}};
  CascadeSample sample;
  sample.observed = std::move(Cascade::Create("dag", std::move(events))).value();
  sample.observation_window = 10.0;
  EXPECT_TRUE(std::isfinite(model.PredictLog(sample).value().At(0, 0)));
}

TEST(TopoLstmTest, ShortTrainingReducesLoss) {
  const CascadeDataset dataset = TinyDataset();
  TopoLstmModel model(SmallTopoLstm());
  const TrainResult result =
      TrainRegressor(model, dataset, TinyTrainerOptions(4));
  EXPECT_LT(result.history.back().train_loss,
            result.history.front().train_loss);
}

TEST(SequenceBaselines, AllDeterministicGivenSeed) {
  const CascadeDataset dataset = TinyDataset();
  DeepCasModel a(SmallDeepCas()), b(SmallDeepCas());
  EXPECT_DOUBLE_EQ(a.PredictLog(dataset.test[0]).value().At(0, 0),
                   b.PredictLog(dataset.test[0]).value().At(0, 0));
  DeepHawkesModel c(SmallDeepHawkes()), d(SmallDeepHawkes());
  EXPECT_DOUBLE_EQ(c.PredictLog(dataset.test[0]).value().At(0, 0),
                   d.PredictLog(dataset.test[0]).value().At(0, 0));
  TopoLstmModel e(SmallTopoLstm()), f(SmallTopoLstm());
  EXPECT_DOUBLE_EQ(e.PredictLog(dataset.test[0]).value().At(0, 0),
                   f.PredictLog(dataset.test[0]).value().At(0, 0));
}

}  // namespace
}  // namespace cascn

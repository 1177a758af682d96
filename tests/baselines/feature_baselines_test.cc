#include <cmath>
#include <optional>

#include <gtest/gtest.h>

#include "../testing/test_data.h"
#include "baselines/feature_deep.h"
#include "baselines/feature_linear.h"
#include "core/trainer.h"

namespace cascn {
namespace {

using testing::TinyDataset;
using testing::TinyTrainerOptions;

TEST(FeatureLinearTest, FitSelectsL2AndPredicts) {
  // A larger dataset so ridge has enough signal to beat the zero baseline.
  const CascadeDataset dataset = TinyDataset(/*seed=*/7,
                                             /*num_cascades=*/400);
  FeatureLinearModel model;
  ASSERT_TRUE(model.Fit(dataset).ok());
  EXPECT_TRUE(model.fitted());
  EXPECT_GT(model.selected_l2(), 0.0);
  const double msle = EvaluateMsle(model, dataset.test);
  EXPECT_TRUE(std::isfinite(msle));
  // Better than predicting zero (labels are positive logs).
  double zero_msle = 0;
  for (const auto& s : dataset.test) zero_msle += s.log_label * s.log_label;
  zero_msle /= dataset.test.size();
  EXPECT_LT(msle, zero_msle);
}

TEST(FeatureLinearTest, NameAndNoTrainableParams) {
  FeatureLinearModel model;
  EXPECT_EQ(model.name(), "Features-linear");
  EXPECT_TRUE(model.TrainableParameters().empty());
}

TEST(FeatureLinearTest, FitRequiresSplits) {
  CascadeDataset empty;
  FeatureLinearModel model;
  EXPECT_FALSE(model.Fit(empty).ok());
}

TEST(FeatureLinearTest, PredictBeforeFitDies) {
  const CascadeDataset dataset = TinyDataset();
  FeatureLinearModel model;
  EXPECT_DEATH(model.PredictLog(dataset.test[0]), "Fit");
}

TEST(FeatureLinearTest, CustomL2GridIsUsed) {
  const CascadeDataset dataset = TinyDataset();
  FeatureLinearModel model({}, {0.123});
  ASSERT_TRUE(model.Fit(dataset).ok());
  EXPECT_DOUBLE_EQ(model.selected_l2(), 0.123);
}

TEST(FeatureDeepTest, TrainingReducesLoss) {
  const CascadeDataset dataset = TinyDataset();
  FeatureDeepModel::Config config;
  config.hidden1 = 16;
  config.hidden2 = 8;
  FeatureDeepModel model(config);
  EXPECT_EQ(model.name(), "Features-deep");
  model.PrepareScaler(dataset.train);
  const double before = EvaluateMsle(model, dataset.validation);
  const TrainResult result =
      TrainRegressor(model, dataset, TinyTrainerOptions(6));
  EXPECT_LT(result.best_validation_msle, before);
}

TEST(FeatureDeepTest, PredictBeforeScalerDies) {
  const CascadeDataset dataset = TinyDataset();
  FeatureDeepModel model({});
  EXPECT_DEATH(model.PredictLog(dataset.test[0]), "PrepareScaler");
}

TEST(FeatureDeepTest, CacheClearedOnRescale) {
  const CascadeDataset dataset = TinyDataset();
  FeatureDeepModel model({});
  model.PrepareScaler(dataset.train);
  const double a = model.PredictLog(dataset.test[0]).value().At(0, 0);
  model.ClearCache();
  EXPECT_DOUBLE_EQ(model.PredictLog(dataset.test[0]).value().At(0, 0), a);
}

/// The feature cache is keyed by what a sample holds, not where it lives: a
/// second cascade emplaced into the first one's storage, as a live cascade
/// rebuilds its sample in place, gets its own features.
TEST(FeatureDeepTest, RecycledAddressGetsTheNewSamplesFeatures) {
  const CascadeDataset dataset = TinyDataset();
  FeatureDeepModel model({});
  model.PrepareScaler(dataset.train);
  std::optional<CascadeSample> slot(dataset.test[0]);
  const CascadeSample* const address = &*slot;
  model.PredictLog(*slot);
  slot.emplace(dataset.test[1]);
  ASSERT_EQ(&*slot, address);
  FeatureDeepModel fresh({});
  fresh.PrepareScaler(dataset.train);
  EXPECT_EQ(model.PredictLog(*slot).value().At(0, 0),
            fresh.PredictLog(dataset.test[1]).value().At(0, 0));
}

TEST(FeatureBaselines, DeepAndLinearAreComparable) {
  // Sanity on the paper's observation that the gap between Feature-deep and
  // Feature-linear is small: both should land in the same MSLE ballpark
  // (within 3x) on the tiny dataset.
  const CascadeDataset dataset = TinyDataset();
  FeatureLinearModel linear;
  ASSERT_TRUE(linear.Fit(dataset).ok());
  const double linear_msle = EvaluateMsle(linear, dataset.test);

  FeatureDeepModel deep({});
  deep.PrepareScaler(dataset.train);
  TrainRegressor(deep, dataset, TinyTrainerOptions(8));
  const double deep_msle = EvaluateMsle(deep, dataset.test);

  EXPECT_LT(deep_msle, linear_msle * 3);
  EXPECT_LT(linear_msle, deep_msle * 3 + 1.0);
}

}  // namespace
}  // namespace cascn

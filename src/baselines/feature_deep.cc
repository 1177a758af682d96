#include "baselines/feature_deep.h"

#include "common/logging.h"
#include "common/rng.h"

namespace cascn {

FeatureDeepModel::FeatureDeepModel(const Config& config) : config_(config) {
  Rng rng(config.seed);
  const int num_features =
      static_cast<int>(FeatureNames(config.feature_options).size());
  mlp_ = std::make_unique<nn::Mlp>(
      std::vector<int>{num_features, config.hidden1, config.hidden2, 1},
      nn::Activation::kRelu, rng);
  RegisterSubmodule("mlp", mlp_.get());
}

void FeatureDeepModel::PrepareScaler(
    const std::vector<CascadeSample>& train_samples) {
  const FeatureMatrix train =
      ExtractFeatureMatrix(train_samples, config_.feature_options);
  scaler_ = FitScaler(train.features);
  scaler_ready_ = true;
  feature_cache_.clear();
}

ag::Variable FeatureDeepModel::PredictLog(const CascadeSample& sample) {
  CASCN_CHECK(scaler_ready_) << "PrepareScaler must run before prediction";
  const uint64_t key = SampleFingerprint(sample);
  auto it = feature_cache_.find(key);
  if (it == feature_cache_.end()) {
    // A live cascade gets a new fingerprint per append; a wholesale reset
    // on overflow keeps the cache bounded.
    if (feature_cache_.size() >= 8192) feature_cache_.clear();
    const std::vector<double> row =
        ExtractFeatures(sample, config_.feature_options);
    Tensor features(1, static_cast<int>(row.size()));
    for (size_t j = 0; j < row.size(); ++j)
      features.At(0, static_cast<int>(j)) =
          (row[j] - scaler_.mean[j]) / scaler_.stddev[j];
    it = feature_cache_.emplace(key, std::move(features)).first;
  }
  return mlp_->Forward(ag::Variable::Leaf(it->second));
}

}  // namespace cascn

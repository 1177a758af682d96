// Features-deep baseline (Section V-B): the same hand-crafted feature
// vectors as Features-linear, fed to an MLP trained with the shared
// Adam/MSLE loop — the paper's "strong baseline" for fair comparison with
// deep models.

#ifndef CASCN_BASELINES_FEATURE_DEEP_H_
#define CASCN_BASELINES_FEATURE_DEEP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/regressor.h"
#include "features/cascade_features.h"
#include "nn/mlp.h"
#include "nn/module.h"

namespace cascn {

/// MLP over standardized cascade features.
class FeatureDeepModel : public nn::Module, public CascadeRegressor {
 public:
  struct Config {
    FeatureOptions feature_options;
    int hidden1 = 32;
    int hidden2 = 16;
    uint64_t seed = 42;
  };

  explicit FeatureDeepModel(const Config& config);

  /// Fits the feature scaler on the training split. Must run before
  /// training/prediction.
  void PrepareScaler(const std::vector<CascadeSample>& train_samples);

  ag::Variable PredictLog(const CascadeSample& sample) override;
  std::vector<ag::Variable> TrainableParameters() override {
    return Parameters();
  }
  std::string name() const override { return "Features-deep"; }
  void ClearCache() override { feature_cache_.clear(); }

 private:
  Config config_;
  std::unique_ptr<nn::Mlp> mlp_;
  FeatureScaler scaler_;
  bool scaler_ready_ = false;
  // Scaled features by SampleFingerprint, since a recycled address can hold
  // another sample.
  std::unordered_map<uint64_t, Tensor> feature_cache_;
};

}  // namespace cascn

#endif  // CASCN_BASELINES_FEATURE_DEEP_H_

// CasCN-Path (Table IV): the ablation that replaces sub-cascade snapshot
// sampling with DeepCas-style random walks. Users are embedded in a dense
// space, each walk becomes a sequence of user embeddings fed to an LSTM
// (all walks of a cascade are processed as one batch), the final hidden
// states are mean-pooled, and an MLP predicts the log increment size. The
// paper reports this variant losing the most accuracy, demonstrating the
// value of snapshot sampling.

#ifndef CASCN_CORE_CASCN_PATH_MODEL_H_
#define CASCN_CORE_CASCN_PATH_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/regressor.h"
#include "core/walk_users.h"
#include "nn/embedding.h"
#include "nn/mlp.h"
#include "nn/module.h"
#include "nn/rnn_cells.h"

namespace cascn {

/// Hyper-parameters of the walk-based variant.
struct CascnPathConfig {
  int user_universe = 2000;
  int embedding_dim = 16;
  int hidden_dim = 12;
  int num_walks = 8;
  int walk_length = 8;
  int mlp_hidden1 = 32;
  int mlp_hidden2 = 16;
  uint64_t seed = 42;
};

/// The CasCN-Path variant.
class CascnPathModel : public nn::Module, public CascadeRegressor {
 public:
  explicit CascnPathModel(const CascnPathConfig& config);

  ag::Variable PredictLog(const CascadeSample& sample) override;
  std::vector<ag::Variable> TrainableParameters() override {
    return Parameters();
  }
  std::string name() const override { return "CasCN-Path"; }
  void ClearCache() override { walk_users_.Clear(); }

 private:
  CascnPathConfig config_;
  std::unique_ptr<nn::Embedding> user_embedding_;
  std::unique_ptr<nn::LstmCell> lstm_;
  std::unique_ptr<nn::Mlp> mlp_;
  WalkUserCache walk_users_;
};

}  // namespace cascn

#endif  // CASCN_CORE_CASCN_PATH_MODEL_H_

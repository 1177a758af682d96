// DeepCas baseline (Li et al., WWW 2017): the first end-to-end deep
// predictor of cascade growth. A cascade is sampled as K fixed-length
// random walks; each walk is a sequence of user embeddings read by a
// bidirectional GRU; walk representations are combined with learned
// attention and an MLP regresses the log increment size. DeepCas uses
// structure and node identity but no adoption timing — the gap Table III
// attributes to it.

#ifndef CASCN_BASELINES_DEEPCAS_MODEL_H_
#define CASCN_BASELINES_DEEPCAS_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/regressor.h"
#include "graph/random_walk.h"
#include "nn/embedding.h"
#include "nn/mlp.h"
#include "nn/module.h"
#include "nn/rnn_cells.h"

namespace cascn {

/// Walks -> embeddings -> bi-GRU -> attention -> MLP.
class DeepCasModel : public nn::Module, public CascadeRegressor {
 public:
  struct Config {
    int user_universe = 2000;
    int embedding_dim = 16;
    int hidden_dim = 12;
    int attention_dim = 8;
    WalkOptions walk_options{/*num_walks=*/8, /*walk_length=*/8};
    int mlp_hidden1 = 32;
    int mlp_hidden2 = 16;
    uint64_t seed = 42;
  };

  explicit DeepCasModel(const Config& config);

  ag::Variable PredictLog(const CascadeSample& sample) override;
  std::vector<ag::Variable> TrainableParameters() override {
    return Parameters();
  }
  std::string name() const override { return "DeepCas"; }
  void ClearCache() override { walk_cache_.clear(); }

 private:
  const std::vector<std::vector<int>>& WalkUsers(const CascadeSample& sample);

  Config config_;
  std::unique_ptr<nn::Embedding> user_embedding_;
  std::unique_ptr<nn::GruCell> gru_fwd_;
  std::unique_ptr<nn::GruCell> gru_bwd_;
  ag::Variable attention_w_;  // 2*hidden x attention_dim
  ag::Variable attention_v_;  // attention_dim x 1
  std::unique_ptr<nn::Mlp> mlp_;
  // walk_cache_[fingerprint][t] = user ids at walk position t (one per
  // walk). Keyed by SampleFingerprint, since a recycled address can hold
  // another sample.
  std::unordered_map<uint64_t, std::vector<std::vector<int>>> walk_cache_;
};

}  // namespace cascn

#endif  // CASCN_BASELINES_DEEPCAS_MODEL_H_

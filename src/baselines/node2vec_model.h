// Node2Vec baseline (Grover & Leskovec 2016): biased random walks over the
// training cascades train skip-gram-with-negative-sampling (SGNS) user
// embeddings; a cascade is then represented by the mean embedding of its
// observed adopters and an MLP regresses the log increment size. As the
// paper observes, bag-of-node-embeddings discards both topology and time,
// so Node2Vec anchors the bottom of Table III.

#ifndef CASCN_BASELINES_NODE2VEC_MODEL_H_
#define CASCN_BASELINES_NODE2VEC_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/regressor.h"
#include "graph/random_walk.h"
#include "nn/mlp.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace cascn {

/// Frozen SGNS user embeddings + trainable MLP head.
class Node2VecModel : public nn::Module, public CascadeRegressor {
 public:
  struct Config {
    int user_universe = 2000;
    int embedding_dim = 16;
    Node2VecOptions walk_options;
    /// Skip-gram context radius.
    int window = 3;
    /// Negative samples per positive pair.
    int negatives = 4;
    /// Passes over the walk corpus.
    int sgns_epochs = 2;
    double sgns_learning_rate = 0.05;
    int mlp_hidden1 = 32;
    int mlp_hidden2 = 16;
    uint64_t seed = 42;
  };

  explicit Node2VecModel(const Config& config);

  /// Pretrains the user embeddings on walks over `train_samples`' observed
  /// cascades. Must run before training the head / predicting.
  void PretrainEmbeddings(const std::vector<CascadeSample>& train_samples);

  ag::Variable PredictLog(const CascadeSample& sample) override;
  /// Only the MLP head trains end-to-end; embeddings stay frozen.
  std::vector<ag::Variable> TrainableParameters() override {
    return Parameters();
  }
  std::string name() const override { return "Node2Vec"; }
  void ClearCache() override { representation_cache_.clear(); }

  const Tensor& embeddings() const { return embeddings_; }

 private:
  Config config_;
  Tensor embeddings_;  // user_universe x dim (frozen after pretraining)
  bool pretrained_ = false;
  std::unique_ptr<nn::Mlp> mlp_;
  // Mean embeddings by SampleFingerprint, since a recycled address can hold
  // another sample.
  std::unordered_map<uint64_t, Tensor> representation_cache_;
};

}  // namespace cascn

#endif  // CASCN_BASELINES_NODE2VEC_MODEL_H_

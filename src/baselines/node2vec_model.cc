#include "baselines/node2vec_model.h"

#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/rng.h"

namespace cascn {

Node2VecModel::Node2VecModel(const Config& config) : config_(config) {
  Rng rng(config.seed);
  mlp_ = std::make_unique<nn::Mlp>(
      std::vector<int>{config.embedding_dim, config.mlp_hidden1,
                       config.mlp_hidden2, 1},
      nn::Activation::kRelu, rng);
  RegisterSubmodule("mlp", mlp_.get());
}

void Node2VecModel::PretrainEmbeddings(
    const std::vector<CascadeSample>& train_samples) {
  Rng rng(config_.seed ^ 0xBADC0DEULL);
  const int v = config_.user_universe;
  const int d = config_.embedding_dim;
  const double init = 0.5 / d;
  Tensor in_table = Tensor::RandomUniform(v, d, -init, init, rng);
  Tensor out_table(v, d);

  // Walk corpus in user-id space.
  std::vector<std::vector<int>> corpus;
  for (const CascadeSample& sample : train_samples) {
    const auto walks =
        SampleNode2VecWalks(sample.observed, config_.walk_options, rng);
    for (const auto& walk : walks) {
      std::vector<int> users;
      users.reserve(walk.size());
      for (int node : walk)
        users.push_back(sample.observed.event(node).user % v);
      corpus.push_back(std::move(users));
    }
  }

  // SGNS: one positive pair + `negatives` uniform negatives per context.
  const double lr = config_.sgns_learning_rate;
  std::vector<double> grad_center(d);
  for (int epoch = 0; epoch < config_.sgns_epochs; ++epoch) {
    for (const auto& walk : corpus) {
      for (size_t c = 0; c < walk.size(); ++c) {
        const int center = walk[c];
        const size_t lo = c >= static_cast<size_t>(config_.window)
                              ? c - config_.window
                              : 0;
        const size_t hi = std::min(walk.size(), c + config_.window + 1);
        for (size_t o = lo; o < hi; ++o) {
          if (o == c) continue;
          std::fill(grad_center.begin(), grad_center.end(), 0.0);
          for (int neg = -1; neg < config_.negatives; ++neg) {
            const int target =
                neg < 0 ? walk[o]
                        : static_cast<int>(rng.UniformInt(v));
            const double label = neg < 0 ? 1.0 : 0.0;
            double dot = 0;
            for (int j = 0; j < d; ++j)
              dot += in_table.At(center, j) * out_table.At(target, j);
            const double g = (Sigmoid(dot) - label) * lr;
            for (int j = 0; j < d; ++j) {
              grad_center[j] += g * out_table.At(target, j);
              out_table.At(target, j) -= g * in_table.At(center, j);
            }
          }
          for (int j = 0; j < d; ++j)
            in_table.At(center, j) -= grad_center[j];
        }
      }
    }
  }
  embeddings_ = std::move(in_table);
  pretrained_ = true;
  representation_cache_.clear();
}

ag::Variable Node2VecModel::PredictLog(const CascadeSample& sample) {
  CASCN_CHECK(pretrained_)
      << "PretrainEmbeddings must run before prediction";
  const uint64_t key = SampleFingerprint(sample);
  auto it = representation_cache_.find(key);
  if (it == representation_cache_.end()) {
    // A live cascade gets a new fingerprint per append; a wholesale reset
    // on overflow keeps the cache bounded.
    if (representation_cache_.size() >= 8192) representation_cache_.clear();
    Tensor rep(1, config_.embedding_dim);
    const Cascade& cascade = sample.observed;
    for (int i = 0; i < cascade.size(); ++i) {
      const int user = cascade.event(i).user % config_.user_universe;
      for (int j = 0; j < config_.embedding_dim; ++j)
        rep.At(0, j) += embeddings_.At(user, j);
    }
    rep.Scale(1.0 / cascade.size());
    it = representation_cache_.emplace(key, std::move(rep)).first;
  }
  return mlp_->Forward(ag::Variable::Leaf(it->second));
}

}  // namespace cascn

#include "baselines/deepcas_model.h"

#include <functional>

#include "common/logging.h"
#include "nn/init.h"

namespace cascn {

DeepCasModel::DeepCasModel(const Config& config) : config_(config) {
  Rng rng(config.seed);
  user_embedding_ = std::make_unique<nn::Embedding>(config.user_universe,
                                                    config.embedding_dim, rng);
  gru_fwd_ = std::make_unique<nn::GruCell>(config.embedding_dim,
                                           config.hidden_dim, rng);
  gru_bwd_ = std::make_unique<nn::GruCell>(config.embedding_dim,
                                           config.hidden_dim, rng);
  attention_w_ = RegisterParameter(
      "attention_w",
      nn::XavierUniform(2 * config.hidden_dim, config.attention_dim, rng));
  attention_v_ = RegisterParameter(
      "attention_v", nn::XavierUniform(config.attention_dim, 1, rng));
  mlp_ = std::make_unique<nn::Mlp>(
      std::vector<int>{2 * config.hidden_dim, config.mlp_hidden1,
                       config.mlp_hidden2, 1},
      nn::Activation::kRelu, rng);
  RegisterSubmodule("user_embedding", user_embedding_.get());
  RegisterSubmodule("gru_fwd", gru_fwd_.get());
  RegisterSubmodule("gru_bwd", gru_bwd_.get());
  RegisterSubmodule("mlp", mlp_.get());
}

const std::vector<std::vector<int>>& DeepCasModel::WalkUsers(
    const CascadeSample& sample) {
  const uint64_t key = SampleFingerprint(sample);
  auto it = walk_cache_.find(key);
  if (it != walk_cache_.end()) return it->second;
  // A live cascade gets a new fingerprint per append; a wholesale reset on
  // overflow keeps the cache bounded.
  if (walk_cache_.size() >= 8192) walk_cache_.clear();
  Rng rng(std::hash<std::string>{}(sample.observed.id()) ^ config_.seed);
  const auto walks =
      SampleCascadeWalks(sample.observed, config_.walk_options, rng);
  std::vector<std::vector<int>> per_step(
      config_.walk_options.walk_length,
      std::vector<int>(walks.size(), 0));
  for (size_t w = 0; w < walks.size(); ++w)
    for (int t = 0; t < config_.walk_options.walk_length; ++t)
      per_step[t][w] =
          sample.observed.event(walks[w][t]).user % config_.user_universe;
  return walk_cache_.emplace(key, std::move(per_step)).first->second;
}

ag::Variable DeepCasModel::PredictLog(const CascadeSample& sample) {
  const auto& per_step = WalkUsers(sample);
  const int num_walks = static_cast<int>(per_step[0].size());

  // Bidirectional GRU over the walk batch.
  nn::RnnState fwd = gru_fwd_->InitialState(num_walks);
  for (const auto& users : per_step)
    fwd = gru_fwd_->Step(user_embedding_->Lookup(users), fwd);
  nn::RnnState bwd = gru_bwd_->InitialState(num_walks);
  for (auto it = per_step.rbegin(); it != per_step.rend(); ++it)
    bwd = gru_bwd_->Step(user_embedding_->Lookup(*it), bwd);
  const ag::Variable walk_repr = ag::ConcatCols(fwd.h, bwd.h);  // K x 2h

  // Attention over walks: softmax(tanh(H Wa) va) weighted sum.
  const ag::Variable scores = ag::MatMul(
      ag::Tanh(ag::MatMul(walk_repr, attention_w_)), attention_v_);  // K x 1
  const ag::Variable attn =
      ag::SoftmaxRows(ag::Transpose(scores));  // 1 x K
  return mlp_->Forward(ag::MatMul(attn, walk_repr));
}

}  // namespace cascn

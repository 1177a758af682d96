#include "baselines/deepcas_model.h"

#include "common/logging.h"
#include "nn/init.h"

namespace cascn {

DeepCasModel::DeepCasModel(const Config& config)
    : config_(config),
      walk_users_(config.walk_options, config.user_universe, config.seed) {
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

ag::Variable DeepCasModel::PredictLog(const CascadeSample& sample) {
  const auto& per_step = walk_users_.Get(sample);
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

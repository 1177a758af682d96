#include "core/cascn_path_model.h"

#include "common/logging.h"

namespace cascn {

CascnPathModel::CascnPathModel(const CascnPathConfig& config)
    : config_(config),
      walk_users_({config.num_walks, config.walk_length}, config.user_universe,
                  config.seed) {
  Rng rng(config.seed);
  user_embedding_ = std::make_unique<nn::Embedding>(config.user_universe,
                                                    config.embedding_dim, rng);
  lstm_ = std::make_unique<nn::LstmCell>(config.embedding_dim,
                                         config.hidden_dim, rng);
  mlp_ = std::make_unique<nn::Mlp>(
      std::vector<int>{config.hidden_dim, config.mlp_hidden1,
                       config.mlp_hidden2, 1},
      nn::Activation::kRelu, rng);
  RegisterSubmodule("user_embedding", user_embedding_.get());
  RegisterSubmodule("lstm", lstm_.get());
  RegisterSubmodule("mlp", mlp_.get());
}

ag::Variable CascnPathModel::PredictLog(const CascadeSample& sample) {
  const auto& per_step = walk_users_.Get(sample);
  CASCN_CHECK(!per_step.empty());
  nn::RnnState state =
      lstm_->InitialState(static_cast<int>(per_step[0].size()));
  for (const std::vector<int>& users : per_step) {
    state = lstm_->Step(user_embedding_->Lookup(users), state);
  }
  return mlp_->Forward(ag::MeanRows(state.h));
}

}  // namespace cascn

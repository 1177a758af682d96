#include "core/cascn_model.h"

#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
#include "nn/init.h"

namespace cascn {
namespace {

/// The sample's encoding, owned by the caller. Every forward reads the
/// snapshot operators, so it has no dense snapshot signals.
std::shared_ptr<const EncodedCascade> Encode(const CascadeSample& sample,
                                             const CascnConfig& config) {
  auto encoded = EncodeForForward(sample, config);
  CASCN_CHECK(encoded.ok()) << "encoding failed for cascade "
                            << sample.observed.id() << ": "
                            << encoded.status().ToString();
  return std::make_shared<const EncodedCascade>(std::move(encoded).value());
}

}  // namespace

std::string VariantName(CascnVariant variant) {
  switch (variant) {
    case CascnVariant::kDefault:
      return "CasCN";
    case CascnVariant::kGru:
      return "CasCN-GRU";
    case CascnVariant::kGcnLstm:
      return "CasCN-GL";
    case CascnVariant::kUndirected:
      return "CasCN-Undirected";
    case CascnVariant::kNoTimeDecay:
      return "CasCN-Time";
  }
  return "CasCN-?";
}

CascnModel::CascnModel(const CascnConfig& config) : config_(config) {
  Rng rng(config.seed);
  switch (config.variant) {
    case CascnVariant::kGru:
      conv_gru_ = std::make_unique<nn::GraphConvGruCell>(
          config.padded_size, config.hidden_dim, config.cheb_order, rng);
      RegisterSubmodule("conv_gru", conv_gru_.get());
      break;
    case CascnVariant::kGcnLstm:
      // GCN over each snapshot, mean-pooled, then a plain LSTM.
      gl_conv_ = std::make_unique<nn::ChebConv>(
          config.padded_size, config.hidden_dim, config.cheb_order, rng);
      gl_lstm_ = std::make_unique<nn::LstmCell>(config.hidden_dim,
                                                config.hidden_dim, rng);
      RegisterSubmodule("gl_conv", gl_conv_.get());
      RegisterSubmodule("gl_lstm", gl_lstm_.get());
      break;
    default:
      conv_lstm_ = std::make_unique<nn::GraphConvLstmCell>(
          config.padded_size, config.hidden_dim, config.cheb_order, rng);
      RegisterSubmodule("conv_lstm", conv_lstm_.get());
      break;
  }
  if (config.variant != CascnVariant::kNoTimeDecay) {
    // softplus(0.5413) ~= 1: decay factors start neutral.
    decay_raw_ = RegisterParameter(
        "decay_raw", Tensor(config.num_time_intervals, 1, 0.5413));
  }
  if (config.attention_pooling) {
    attn_w_ = RegisterParameter(
        "attn_w", nn::XavierUniform(config.hidden_dim, config.hidden_dim, rng));
    attn_v_ = RegisterParameter(
        "attn_v", nn::XavierUniform(config.hidden_dim, 1, rng));
  }
  mlp_ = std::make_unique<nn::Mlp>(
      std::vector<int>{config.hidden_dim, config.mlp_hidden1,
                       config.mlp_hidden2, 1},
      nn::Activation::kRelu, rng);
  RegisterSubmodule("mlp", mlp_.get());
}

std::string CascnModel::name() const { return VariantName(config_.variant); }

std::shared_ptr<const EncodedCascade> CascnModel::Encoded(
    const CascadeSample& sample) {
  // Only recorded forwards re-read an encoding (every training epoch). A
  // values-only forward serves a prefix that is seen once, so it keeps its
  // encoding for this call alone: no fingerprint, no lock, no entry.
  if (!ag::GradEnabled()) return Encode(sample, config_);
  const uint64_t key = SampleFingerprint(sample);
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_it);
      return it->second.encoded;
    }
  }
  // Encoding is the expensive part; do it outside the lock so concurrent
  // misses on *different* samples don't serialize.
  auto fresh = Encode(sample, config_);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    // Another thread encoded the same sample first; keep its entry.
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_it);
    return it->second.encoded;
  }
  cache_lru_.push_front(key);
  auto& entry = cache_[key];
  entry.encoded = std::move(fresh);
  entry.lru_it = cache_lru_.begin();
  auto result = entry.encoded;
  const size_t capacity =
      config_.encoding_cache_capacity > 0
          ? static_cast<size_t>(config_.encoding_cache_capacity)
          : 1;
  while (cache_.size() > capacity) {
    cache_.erase(cache_lru_.back());
    cache_lru_.pop_back();
  }
  return result;
}

double CascnModel::EncodedLambdaMax(const CascadeSample& sample) {
  return Encoded(sample)->lambda_max;
}

ag::Variable CascnModel::DecayFactor(int interval) const {
  CASCN_CHECK(decay_raw_.defined());
  return ag::Softplus(ag::SliceRows(decay_raw_, interval, 1));
}

ag::Variable CascnModel::ForwardPooled(const CascadeSample& sample) {
  const std::shared_ptr<const EncodedCascade> enc_ptr = Encoded(sample);
  const EncodedCascade& enc = *enc_ptr;
  const bool use_decay = config_.variant != CascnVariant::kNoTimeDecay;

  if (config_.variant == CascnVariant::kGcnLstm) {
    // GCN per snapshot -> node-mean -> plain LSTM -> decayed sum (1 x d_h).
    nn::RnnState state = gl_lstm_->InitialState(1);
    ag::Variable pooled_sum;
    for (int t = 0; t < enc.num_snapshots(); ++t) {
      std::vector<CsrMatrix> ops;
      for (int k = 0; k < config_.cheb_order; ++k)
        ops.push_back(enc.SnapshotOperator(t, k));
      const ag::Variable conv =
          ag::Relu(gl_conv_->ForwardPropagated(std::move(ops)));
      state = gl_lstm_->Step(ag::MeanRows(conv), state);
      ag::Variable h = state.h;
      if (use_decay)
        h = ag::ScaleByScalar(h, DecayFactor(enc.decay_intervals[t]));
      pooled_sum = pooled_sum.defined() ? ag::Add(pooled_sum, h) : h;
    }
    return pooled_sum;
  }

  // Convolutional recurrence (default, GRU, undirected, no-decay): h_t per
  // snapshot. The cell runs the whole sequence, values only with grad mode
  // off and recorded with it on.
  const bool gru = config_.variant == CascnVariant::kGru;
  if (!ag::GradEnabled() && !config_.attention_pooling) {
    // Values only: the pooling below on the cell's tensors, with the
    // tensor functions its ops call in the order they call them, and no
    // graph node until the result. A cascade has a root, so T >= 1.
    std::vector<Tensor> states =
        gru ? conv_gru_->Run(enc.cheb_basis, enc.snapshot_ops,
                             enc.snapshot_columns)
            : conv_lstm_->Run(enc.cheb_basis, enc.snapshot_ops,
                              enc.snapshot_columns);
    Tensor& sum = states[0];
    for (size_t t = 0; t < states.size(); ++t) {
      if (use_decay)
        states[t].Scale(Softplus(
            decay_raw_.value().At(enc.decay_intervals[t], 0)));
      if (t > 0) sum.AddInPlace(states[t]);
    }
    Tensor pooled = sum.ColSums();
    pooled.Scale(1.0 / config_.max_sequence_length);
    return ag::Variable::Leaf(std::move(pooled));
  }
  std::vector<ag::Variable> states;
  if (ag::GradEnabled()) {
    // The recorded steps hold the operators through aliasing pointers into
    // this encoding, which stays alive until their backward has run.
    const nn::SharedBasis basis(enc_ptr, &enc.cheb_basis);
    const std::shared_ptr<const CsrMatrix> ops(enc_ptr, &enc.snapshot_ops);
    for (const nn::RnnState& state :
         gru ? conv_gru_->RunRecorded(basis, ops, enc.snapshot_columns,
                                      conv_gru_->InitialState())
             : conv_lstm_->RunRecorded(basis, ops, enc.snapshot_columns,
                                       conv_lstm_->InitialState()))
      states.push_back(state.h);
  } else {
    for (Tensor& h :
         gru ? conv_gru_->Run(enc.cheb_basis, enc.snapshot_ops,
                              enc.snapshot_columns)
             : conv_lstm_->Run(enc.cheb_basis, enc.snapshot_ops,
                               enc.snapshot_columns))
      states.push_back(ag::Variable::Leaf(std::move(h)));
  }
  ag::Variable sum;  // n x d_h accumulated over time (Eq. 17)
  std::vector<ag::Variable> per_step;  // attention-pooling extension
  for (size_t t = 0; t < states.size(); ++t) {
    ag::Variable h = states[t];
    if (use_decay)
      h = ag::ScaleByScalar(h, DecayFactor(enc.decay_intervals[t]));
    if (config_.attention_pooling) {
      per_step.push_back(ag::SumRows(h));  // 1 x d_h per snapshot
    } else {
      sum = sum.defined() ? ag::Add(sum, h) : h;
    }
  }
  if (config_.attention_pooling) {
    // Future-work extension: softmax attention over the per-snapshot
    // representations instead of plain summation.
    const ag::Variable stacked = ag::ConcatRows(per_step);  // T x d_h
    const ag::Variable scores =
        ag::MatMul(ag::Tanh(ag::MatMul(stacked, attn_w_)), attn_v_);
    const ag::Variable attention = ag::SoftmaxRows(ag::Transpose(scores));
    return ag::MatMul(attention, stacked);  // 1 x d_h
  }
  // Node sum (Eq. 17 pools by summation, keeping the representation
  // size-aware), rescaled by the sequence-length bound to keep MLP inputs
  // in a moderate range.
  return ag::ScalarMul(ag::SumRows(sum),
                       1.0 / config_.max_sequence_length);
}

ag::Variable CascnModel::PredictLog(const CascadeSample& sample) {
  return mlp_->Forward(ForwardPooled(sample));
}

Tensor CascnModel::Representation(const CascadeSample& sample) {
  ag::NoGradGuard no_grad;
  return ForwardPooled(sample).value();
}

}  // namespace cascn

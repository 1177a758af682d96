// CascnModel: the paper's primary contribution (Section IV, Fig. 2).
//
// Pipeline per cascade:
//   1. Sample the cascade as a sub-cascade snapshot sequence and build the
//      CasLaplacian + Chebyshev basis (core/encoder.h).
//   2. Thread the snapshot signals through a graph-convolutional LSTM
//      (Eq. 12-14), producing hidden states h_1..h_T (each n x d_h).
//   3. Weight each hidden state by a learned, non-parametric time-decay
//      factor lambda_{m(t)} (Eq. 15-16) and sum-pool over time (Eq. 17).
//   4. Mean-pool over nodes and regress the log increment size with an MLP
//      (Eq. 18) under squared log error (Eq. 19).
//
// The ablation variants of Table IV are selected by CascnConfig::variant:
// GRU gating, GCN-then-LSTM, undirected Laplacian, or no time decay. The
// walk-sampling variant CasCN-Path lives in cascn_path_model.h because its
// input pipeline is entirely different.

#ifndef CASCN_CORE_CASCN_MODEL_H_
#define CASCN_CORE_CASCN_MODEL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/encoder.h"
#include "core/regressor.h"
#include "nn/graph_rnn_cells.h"
#include "nn/mlp.h"
#include "nn/module.h"
#include "nn/rnn_cells.h"

namespace cascn {

/// CasCN and its snapshot-based variants.
class CascnModel : public nn::Module, public CascadeRegressor {
 public:
  explicit CascnModel(const CascnConfig& config);

  ag::Variable PredictLog(const CascadeSample& sample) override;
  std::vector<ag::Variable> TrainableParameters() override {
    return Parameters();
  }
  std::string name() const override;
  void ClearCache() override {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    cache_.clear();
    cache_lru_.clear();
  }

  /// Parameters are only read during forward, a values-only forward keeps
  /// its encoding to itself, and the recorded forwards' encoding cache is
  /// mutex-guarded, so per-sample graphs may be built concurrently
  /// (gradient accumulation safety is the trainer's job via
  /// ag::ScopedGradCapture).
  bool SupportsConcurrentForward() const override { return true; }

  /// Number of cached per-sample encodings (bounded by
  /// config.encoding_cache_capacity). Only recorded forwards add entries.
  size_t EncodingCacheSize() const {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    return cache_.size();
  }

  /// The pooled cascade representation h(C_i(t)) (1 x hidden_dim) after a
  /// values-only forward pass (ag::NoGradGuard); used by the Fig. 9
  /// feature-visualisation experiment.
  Tensor Representation(const CascadeSample& sample);

  const CascnConfig& config() const { return config_; }

  /// lambda_max the encoder chose for this sample (Table V analysis).
  double EncodedLambdaMax(const CascadeSample& sample);

 private:
  /// The sample's encoding. With grad mode off (PredictValue,
  /// Representation) it is encoded for this call only and the cache is not
  /// touched: a served prefix is forecast once. A recorded forward reads
  /// and fills the cache, because training re-reads every sample each
  /// epoch. Entries are keyed by SampleFingerprint so a recycled heap
  /// address can never alias a previous cascade's encoding, LRU-bounded by
  /// config.encoding_cache_capacity, and shared_ptr so a concurrent
  /// eviction can never invalidate an encoding another thread is reading.
  std::shared_ptr<const EncodedCascade> Encoded(const CascadeSample& sample);

  /// Shared forward: pooled 1 x hidden representation.
  ag::Variable ForwardPooled(const CascadeSample& sample);

  /// Softplus-positive decay factor for interval m, as a 1x1 Variable.
  ag::Variable DecayFactor(int interval) const;

  CascnConfig config_;
  std::unique_ptr<nn::GraphConvLstmCell> conv_lstm_;  // default & ablations
  std::unique_ptr<nn::GraphConvGruCell> conv_gru_;    // kGru
  std::unique_ptr<nn::ChebConv> gl_conv_;             // kGcnLstm
  std::unique_ptr<nn::LstmCell> gl_lstm_;             // kGcnLstm
  ag::Variable decay_raw_;  // l x 1; lambda_m = softplus(raw_m)
  // Attention-pooling extension (config.attention_pooling).
  ag::Variable attn_w_;  // hidden x hidden
  ag::Variable attn_v_;  // hidden x 1
  std::unique_ptr<nn::Mlp> mlp_;
  struct CacheEntry {
    std::shared_ptr<const EncodedCascade> encoded;
    std::list<uint64_t>::iterator lru_it;
  };
  mutable std::mutex cache_mutex_;  // guards cache_ and cache_lru_
  std::unordered_map<uint64_t, CacheEntry> cache_;
  std::list<uint64_t> cache_lru_;  // front = most recently used
};

}  // namespace cascn

#endif  // CASCN_CORE_CASCN_MODEL_H_

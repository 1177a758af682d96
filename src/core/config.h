// Configuration of the CasCN model and its ablation variants.

#ifndef CASCN_CORE_CONFIG_H_
#define CASCN_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "graph/laplacian.h"
#include "graph/snapshot.h"

namespace cascn {

/// Which CasCN variant to build (Section V-C / Table IV).
enum class CascnVariant {
  /// Full model: directed CasLaplacian, ChebConv-LSTM, learned time decay.
  kDefault,
  /// LSTM replaced by a graph-convolutional GRU.
  kGru,
  /// Separate GCN-then-LSTM pipeline instead of convolutional gates.
  kGcnLstm,
  /// Undirected normalised Laplacian instead of the CasLaplacian.
  kUndirected,
  /// Time-decay weighting disabled.
  kNoTimeDecay,
};

std::string VariantName(CascnVariant variant);

/// How lambda_max for Chebyshev rescaling is obtained (Table V).
enum class LambdaMaxMode {
  /// Exact largest eigenvalue per cascade via power iteration.
  kExact,
  /// The common approximation lambda_max ~= 2.
  kApproximateTwo,
};

/// Hyper-parameters of CasCN.
struct CascnConfig {
  CascnVariant variant = CascnVariant::kDefault;

  /// Padded cascade size n: filter shapes are tied to it; larger observed
  /// cascades are truncated to their first n nodes.
  int padded_size = 32;
  /// Hidden state width d_h.
  int hidden_dim = 12;
  /// Chebyshev order K (paper: K = 2 is best, Table V).
  int cheb_order = 2;
  /// Snapshot sequence cap (recurrence depth bound).
  int max_sequence_length = 10;
  /// Number of time-decay intervals l (Eq. 15).
  int num_time_intervals = 8;
  /// Hidden widths of the prediction MLP (output width 1 is implicit).
  int mlp_hidden1 = 32;
  int mlp_hidden2 = 16;

  /// Extension (the paper's future-work item 1): replace the Eq. 17 sum
  /// pooling over time with learned attention over the per-snapshot
  /// representations. Off by default to match the published model.
  bool attention_pooling = false;

  LambdaMaxMode lambda_mode = LambdaMaxMode::kExact;
  /// Teleport weight of the CasLaplacian transition matrix (Eq. 7).
  double caslaplacian_alpha = 0.85;

  /// Seed for parameter initialisation.
  uint64_t seed = 42;

  /// Per-model cap on cached per-sample encodings (LRU-evicted beyond this).
  /// It bounds recorded (grad-mode) forwards only: sized to hold a full
  /// training split. A values-only forward (serving, evaluation) caches
  /// nothing.
  int encoding_cache_capacity = 8192;

  SnapshotOptions MakeSnapshotOptions() const {
    SnapshotOptions opts;
    opts.padded_size = padded_size;
    opts.max_sequence_length = max_sequence_length;
    return opts;
  }

  CasLaplacianOptions MakeLaplacianOptions() const {
    CasLaplacianOptions opts;
    opts.alpha = caslaplacian_alpha;
    return opts;
  }
};

}  // namespace cascn

#endif  // CASCN_CORE_CONFIG_H_

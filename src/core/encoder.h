// Per-cascade preprocessing shared by every forward pass: the snapshot
// signal sequence (Fig. 3), the cascade Laplacian scaled for Chebyshev
// filtering (Algorithm 1 + Eq. 4), the Chebyshev basis, and the time-decay
// interval of each snapshot (Eq. 15). All of it depends only on the sample
// and the configuration, so a model computes it once per forward and, when
// training re-reads the sample every epoch, caches it.
//
// A graph convolution filters X_t as sum_k (T_k X_t) W_k (Eq. 12-14), and
// T_k X_t is a constant of the sample too. The encoder builds it once, as
// the sparse snapshot operators P_{t,k} = T_k X_t: X_t has a few nonzeros
// per snapshot, so P is far smaller than a dense X_t, and every forward and
// every epoch reads it instead of propagating X_t again.

#ifndef CASCN_CORE_ENCODER_H_
#define CASCN_CORE_ENCODER_H_

#include <vector>

#include "common/result.h"
#include "core/config.h"
#include "data/dataset.h"
#include "tensor/csr_matrix.h"
#include "tensor/tensor.h"

namespace cascn {

/// Precomputed per-sample inputs of the CasCN forward pass.
struct EncodedCascade {
  /// Dense padded adjacency signal X_t per snapshot (each n x n). No
  /// forward reads it: it is kept for callers that step a cell on a dense
  /// X_t, and CascnModel drops it before caching an encoding.
  std::vector<Tensor> snapshot_signals;
  /// Snapshot operators P_{t,k} = T_k X_t (each n x n, exact zeros
  /// dropped) for k = 0..K-1 of cheb_basis, stacked as row blocks of one
  /// (T K n) x n matrix: P_{t,k} is rows [(t K + k) n, (t K + k + 1) n).
  CsrMatrix snapshot_ops;
  /// Time-decay interval index m(t_j) per snapshot, in [0, l).
  std::vector<int> decay_intervals;
  /// Chebyshev basis {T_0..T_{K-1}} of the scaled cascade Laplacian.
  std::vector<CsrMatrix> cheb_basis;
  /// Observed nodes actually represented (<= padded size).
  int active_n = 0;
  /// lambda_max used for rescaling (exact or 2.0).
  double lambda_max = 2.0;

  /// Number of snapshots T.
  int num_snapshots() const {
    return static_cast<int>(decay_intervals.size());
  }
  /// The first row of snapshot t's operators in snapshot_ops.
  int snapshot_ops_row(int t) const {
    return t * static_cast<int>(cheb_basis.size()) * snapshot_ops.cols();
  }
};

/// Encodes one sample under `config` (the variant selects directed vs.
/// undirected Laplacian; lambda_mode selects exact vs. approximate
/// lambda_max). Fails only if the CasLaplacian stationary iteration fails.
Result<EncodedCascade> EncodeCascade(const CascadeSample& sample,
                                     const CascnConfig& config);

/// Eq. 15: the decay interval of an adoption at `time` within an
/// observation window of length `window` split into `num_intervals`.
int DecayInterval(double time, double window, int num_intervals);

}  // namespace cascn

#endif  // CASCN_CORE_ENCODER_H_

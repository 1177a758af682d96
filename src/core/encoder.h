// Per-cascade preprocessing shared by every forward pass: the snapshot
// signal sequence (Fig. 3), the cascade Laplacian scaled for Chebyshev
// filtering (Algorithm 1 + Eq. 4), the Chebyshev basis, and the time-decay
// interval of each snapshot (Eq. 15). All of it depends only on the sample
// and the configuration, so a model computes it once per forward and, when
// training re-reads the sample every epoch, caches it.
//
// A graph convolution filters X_t as sum_k (T_k X_t) W_k (Eq. 12-14), and
// T_k X_t is a constant of the sample too. The encoder builds it once, as
// sparse snapshot operators that every forward and every epoch reads
// instead of propagating X_t again. The snapshots are prefixes of one
// cascade and a node's column of X_t lists its parents, so the columns of
// X_t agree across snapshots: one block per order, T_k X of the whole
// prefix, holds every snapshot's P_{t,k} = T_k X_t as a column range.

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
  /// Dense padded adjacency signal X_t per snapshot (each padded_size x
  /// padded_size): BuildSnapshotSequence's adjacencies, moved in. No
  /// forward reads it: EncodeCascade fills it for callers that step a cell
  /// on a dense X_t, and EncodeForForward, CascnModel's encoder, does not.
  std::vector<Tensor> snapshot_signals;
  /// Snapshot operator blocks Q_k = T_k X for k = 0..K-1 of cheb_basis
  /// (each n x n, exact zeros dropped), stacked as row blocks of one
  /// (K n) x n matrix: Q_k is rows [k n, (k + 1) n). X is the adjacency of
  /// the whole encoded prefix with the root's self-loop. Snapshot t's X_t
  /// equals X on the columns snapshot_columns[t] and has no entries
  /// elsewhere, so each row of P_{t,k} = T_k X_t is the run of that row of
  /// Q_k in those columns: the same entries, values and order.
  CsrMatrix snapshot_ops;
  /// The columns of snapshot_ops that snapshot t reads: [0, n_0) for the
  /// first snapshot, the only one with the root's self-loop (column 0),
  /// and [1, n_t) after it, for n_t the nodes snapshot t holds.
  std::vector<ColumnRange> snapshot_columns;
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
  /// Snapshot t's operator P_{t,k} = T_k X_t as its own n x n matrix.
  CsrMatrix SnapshotOperator(int t, int k) const;
};

/// Encodes one sample under `config` (the variant selects directed vs.
/// undirected Laplacian; lambda_mode selects exact vs. approximate
/// lambda_max). Fails only if the CasLaplacian stationary iteration fails.
Result<EncodedCascade> EncodeCascade(const CascadeSample& sample,
                                     const CascnConfig& config);

/// Every field of EncodeCascade but snapshot_signals, with the same bits:
/// what a forward reads, without the dense padded snapshot adjacencies.
/// EncodeCascade is this plus the signals.
Result<EncodedCascade> EncodeForForward(const CascadeSample& sample,
                                        const CascnConfig& config);

/// Eq. 15: the decay interval of an adoption at `time` within an
/// observation window of length `window` split into `num_intervals`.
int DecayInterval(double time, double window, int num_intervals);

}  // namespace cascn

#endif  // CASCN_CORE_ENCODER_H_

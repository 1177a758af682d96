#include "core/encoder.h"

#include <algorithm>

#include "common/logging.h"
#include "graph/chebyshev.h"
#include "graph/snapshot.h"

namespace cascn {

int DecayInterval(double time, double window, int num_intervals) {
  CASCN_CHECK(window > 0 && num_intervals >= 1);
  // Clamped in double before the cast: converting NaN or an out-of-range
  // double to int is undefined behaviour. NaN maps to interval 0.
  const double m = time / window * num_intervals;
  if (!(m > 0.0)) return 0;
  if (m >= num_intervals - 1) return num_intervals - 1;
  return static_cast<int>(m);
}

CsrMatrix EncodedCascade::SnapshotOperator(int t, int k) const {
  const int n = snapshot_ops.cols();
  return snapshot_ops.RowBlock(k * n, n, snapshot_columns[t]);
}

Result<EncodedCascade> EncodeForForward(const CascadeSample& sample,
                                        const CascnConfig& config) {
  EncodedCascade enc;
  const Cascade& cascade = sample.observed;
  enc.active_n = std::min(cascade.size(), config.padded_size);

  // Cascade Laplacian: directed CasLaplacian by default, undirected
  // normalised Laplacian for the CasCN-Undirected ablation.
  CsrMatrix laplacian;
  if (config.variant == CascnVariant::kUndirected) {
    laplacian = UndirectedNormalizedLaplacian(cascade, config.padded_size);
  } else {
    CASCN_ASSIGN_OR_RETURN(
        laplacian, CascadeLaplacian(cascade, config.padded_size,
                                    config.MakeLaplacianOptions()));
  }
  enc.lambda_max = config.lambda_mode == LambdaMaxMode::kExact
                       ? EstimateLambdaMax(laplacian, enc.active_n)
                       : 2.0;
  const CsrMatrix scaled =
      ScaleLaplacian(laplacian, enc.lambda_max, enc.active_n);
  enc.cheb_basis = ChebyshevBasis(scaled, config.cheb_order, enc.active_n);

  // Snapshot sequence (Fig. 3): a snapshot of the first n nodes reads
  // columns [0, n) (the first snapshot) or [1, n) of one block of
  // operators per order, T_k X for the whole prefix's adjacency X, and
  // decays by the time of its newest node.
  const std::vector<int> prefix_lengths =
      SnapshotPrefixLengths(cascade, config.MakeSnapshotOptions());
  enc.snapshot_columns.reserve(prefix_lengths.size());
  enc.decay_intervals.reserve(prefix_lengths.size());
  for (const int n : prefix_lengths) {
    enc.snapshot_columns.push_back({enc.snapshot_columns.empty() ? 0 : 1, n});
    enc.decay_intervals.push_back(
        DecayInterval(cascade.event(n - 1).time, sample.observation_window,
                      config.num_time_intervals));
  }
  enc.snapshot_ops = StackedProducts(
      enc.cheb_basis, cascade.AdjacencyMatrix(enc.active_n, config.padded_size,
                                              /*root_self_loop=*/true));
  return enc;
}

Result<EncodedCascade> EncodeCascade(const CascadeSample& sample,
                                     const CascnConfig& config) {
  EncodedCascade enc;
  CASCN_ASSIGN_OR_RETURN(enc, EncodeForForward(sample, config));
  std::vector<CascadeSnapshot> snapshots =
      BuildSnapshotSequence(sample.observed, config.MakeSnapshotOptions());
  enc.snapshot_signals.reserve(snapshots.size());
  for (CascadeSnapshot& snap : snapshots)
    enc.snapshot_signals.push_back(std::move(snap.adjacency));
  return enc;
}

}  // namespace cascn

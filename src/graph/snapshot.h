// Sub-cascade snapshot sampling (Section IV-A, Fig. 3): a cascade observed
// for time T becomes a sequence of adjacency matrices, one per retained
// adoption event, each capturing the cascade topology at that diffusion
// time. The first snapshot contains only the root with a self-connection.
// Each adjacency is the dense padded signal X_t itself, written edge by
// edge: the encoder hands it on as it is, with no sparse form between.

#ifndef CASCN_GRAPH_SNAPSHOT_H_
#define CASCN_GRAPH_SNAPSHOT_H_

#include <vector>

#include "graph/cascade.h"
#include "tensor/tensor.h"

namespace cascn {

/// One sub-cascade snapshot g_i^{t_j}.
struct CascadeSnapshot {
  /// Number of nodes adopted by this snapshot (the prefix length).
  int num_nodes = 0;
  /// Adoption time of the newest node in the snapshot.
  double time = 0.0;
  /// Dense padded adjacency matrix a_i^{t_j} (padded_size x padded_size):
  /// entry (p, i) counts how often node i lists parent p, so a parent
  /// listed twice reads 2.0. The root's self-connection is included in the
  /// first snapshot only, as in Fig. 3 of the paper.
  Tensor adjacency;
};

/// Options controlling snapshot extraction.
struct SnapshotOptions {
  /// Matrices are padded to this size; nodes beyond it are dropped (the
  /// model's filter shapes are tied to this size).
  int padded_size = 50;
  /// Upper bound on sequence length. A cascade with more events is
  /// subsampled evenly (keeping the first and last snapshot) so the
  /// recurrence depth stays bounded.
  int max_sequence_length = 20;
};

/// The node counts of BuildSnapshotSequence's snapshots, ascending: 1..u
/// for the u = min(size, padded_size) usable nodes when u is at most
/// max_sequence_length, and otherwise max_sequence_length counts spread
/// evenly over [1, u], duplicates dropped (u alone for a bound of 1). For
/// callers that need no adjacency.
std::vector<int> SnapshotPrefixLengths(const Cascade& cascade,
                                       const SnapshotOptions& opts);

/// Builds the snapshot sequence G_i^T for an observed cascade. The cascade
/// should already be truncated to the observation window (Cascade::Prefix).
std::vector<CascadeSnapshot> BuildSnapshotSequence(const Cascade& cascade,
                                                   const SnapshotOptions& opts);

}  // namespace cascn

#endif  // CASCN_GRAPH_SNAPSHOT_H_

// Cascade Laplacians (Section IV-B).
//
// CasCN convolves over a *directed* Laplacian of each cascade, the
// CasLaplacian (Algorithm 1, Eq. 5-8):
//
//   P_c   = (1 - alpha) E/n + alpha D^{-1} W     (teleport-smoothed walk)
//   phi^T P_c = phi^T, sum(phi) = 1              (stationary distribution)
//   Delta_c = Phi^{1/2} (I - P_c) Phi^{-1/2}     (Diplacian, Li & Zhang)
//
// The teleport term makes P_c irreducible so phi exists and is strictly
// positive even though cascades are DAGs rather than strongly connected
// graphs. Rows of D^{-1} W that are empty (nodes with no outgoing edge)
// would leave P_c sub-stochastic, so dangling rows fall back to the uniform
// distribution — the standard PageRank dangling-node fix.
//
// The undirected normalised Laplacian L = I - D^{-1/2} W_sym D^{-1/2} is
// also provided for the CasCN-Undirected ablation (Table IV).
//
// Both are returned scaled for Chebyshev filtering:
//   L~ = 2 L / lambda_max - I          (Eq. 2/4)
// lambda_max is either estimated per cascade by power iteration or
// approximated by 2 (Table V compares the two).
//
// Every stage works at the cascade's size: on the n x n active block, not
// the padded one, with its CSR rows written directly in row order (no
// triplets, no sort). The padded rows and columns stay empty, so they
// would only add exact zeros; tests/core/encoder_oracle_test.cc holds the
// padded implementation these keep bit for bit.

#ifndef CASCN_GRAPH_LAPLACIAN_H_
#define CASCN_GRAPH_LAPLACIAN_H_

#include "common/result.h"
#include "graph/cascade.h"
#include "tensor/csr_matrix.h"

namespace cascn {

/// Options for CasLaplacian construction.
struct CasLaplacianOptions {
  /// Teleport weight alpha in Eq. 7. The walk follows cascade edges with
  /// probability alpha and jumps uniformly with probability 1 - alpha.
  double alpha = 0.85;
  /// Iteration budget for the stationary-distribution power iteration.
  int stationary_max_iterations = 2000;
  double stationary_tolerance = 1e-10;
};

/// Algorithm 1: the directed CasLaplacian Delta_c of an observed cascade.
/// Computed over the cascade's `n` active nodes (with the root
/// self-connection contributing to W as in Fig. 3): P_c is one dense n x n
/// block, and Delta_c's rows, exact zeros dropped, fill the active rows of
/// a padded_size x padded_size matrix that is empty outside that block.
/// Returns InvalidArgument unless alpha is in (0, 1), and
/// FailedPrecondition if the stationary iteration does not converge within
/// its budget.
Result<CsrMatrix> CascadeLaplacian(const Cascade& cascade, int padded_size,
                                   const CasLaplacianOptions& options = {});

/// Undirected normalised Laplacian L = I - D^{-1/2} W_sym D^{-1/2} over the
/// symmetrised cascade adjacency, embedded in a padded matrix as above.
/// Isolated nodes contribute identity rows.
CsrMatrix UndirectedNormalizedLaplacian(const Cascade& cascade,
                                        int padded_size);

/// Chebyshev rescaling: 2 L / lambda_max - I restricted to the top-left
/// `active_n` block (the padded region stays zero so padding nodes carry no
/// signal). Pre: lambda_max > 0.
CsrMatrix ScaleLaplacian(const CsrMatrix& laplacian, double lambda_max,
                         int active_n);

/// Largest eigenvalue of the active block of `laplacian` via power
/// iteration (PowerIterationLargestEigenvalue, which iterates on that block
/// only); falls back to 2.0 when the estimate degenerates (e.g.,
/// single-node cascades).
double EstimateLambdaMax(const CsrMatrix& laplacian, int active_n);

}  // namespace cascn

#endif  // CASCN_GRAPH_LAPLACIAN_H_

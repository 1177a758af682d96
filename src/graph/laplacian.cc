#include "graph/laplacian.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "tensor/linalg.h"

namespace cascn {

Result<CsrMatrix> CascadeLaplacian(const Cascade& cascade, int padded_size,
                                   const CasLaplacianOptions& options) {
  if (!(options.alpha > 0.0 && options.alpha < 1.0))
    return Status::InvalidArgument("CasLaplacian alpha must be in (0, 1)");
  const int n = std::min(cascade.size(), padded_size);
  // Cascade::Create rejects an empty cascade and config parsing a
  // padded_size below 1.
  CASCN_CHECK(padded_size >= n && n >= 1);

  // Step 1: the active block's adjacency W with the root self-connection
  // (Fig. 3), built in place of P_c. A parent listed twice is one edge.
  Tensor pc(n, n);
  pc.At(0, 0) = 1.0;
  for (int i = 1; i < n; ++i)
    for (const int p : cascade.event(i).parents) pc.At(p, i) = 1.0;

  // Step 2: transition matrix P_c = (1-a) E/n + a D^{-1} W (Eq. 7), with
  // dangling rows replaced by the uniform distribution so P_c stays
  // row-stochastic.
  const double teleport = (1.0 - options.alpha) / n;
  for (int i = 0; i < n; ++i) {
    double* const row = pc.data() + static_cast<size_t>(i) * n;
    double out_degree = 0.0;
    for (int j = 0; j < n; ++j) out_degree += row[j];
    if (out_degree > 0) {
      for (int j = 0; j < n; ++j)
        row[j] = teleport + options.alpha * row[j] / out_degree;
    } else {
      for (int j = 0; j < n; ++j) row[j] = teleport + options.alpha / n;
    }
  }

  // Step 3: stationary distribution phi^T P_c = phi^T.
  CASCN_ASSIGN_OR_RETURN(
      std::vector<double> sqrt_phi,
      StationaryDistribution(pc, options.stationary_max_iterations,
                             options.stationary_tolerance));
  for (double& v : sqrt_phi) {
    // alpha in (0, 1) makes every entry of P_c at least (1 - alpha)/n > 0,
    // so every entry of P_c^T phi is positive.
    CASCN_CHECK(v > 0) << "stationary distribution must be positive";
    v = std::sqrt(v);
  }

  // Steps 4-5: Delta_c = Phi^{1/2} (I - P_c) Phi^{-1/2} (Eq. 8), written
  // row by row into the padded matrix, exact zeros dropped.
  CsrRowBuilder delta(padded_size, padded_size, n * n);
  for (int i = 0; i < n; ++i) {
    const double* const row = pc.data() + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const double identity = i == j ? 1.0 : 0.0;
      const double v = sqrt_phi[i] * (identity - row[j]) / sqrt_phi[j];
      if (v != 0.0) delta.Append(j, v);
    }
    delta.EndRow();
  }
  return std::move(delta).Build();
}

CsrMatrix UndirectedNormalizedLaplacian(const Cascade& cascade,
                                        int padded_size) {
  const int n = std::min(cascade.size(), padded_size);
  // The symmetrised adjacency W. The root self-connection is a
  // snapshot-representation artefact; the standard normalised Laplacian is
  // defined over a loop-free W.
  std::vector<char> w(static_cast<size_t>(n) * n, 0);
  for (int i = 1; i < n; ++i)
    for (const int p : cascade.event(i).parents)
      w[static_cast<size_t>(p) * n + i] = w[static_cast<size_t>(i) * n + p] = 1;
  std::vector<double> degree(n, 0.0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) degree[i] += w[static_cast<size_t>(i) * n + j];

  // An edge gives both its ends a positive degree, and an isolated node an
  // identity row.
  CsrRowBuilder lap(padded_size, padded_size, n + 2 * cascade.num_edges());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (j == i) {
        lap.Append(i, 1.0);
      } else if (w[static_cast<size_t>(i) * n + j]) {
        lap.Append(j, -1.0 / std::sqrt(degree[i] * degree[j]));
      }
    }
    lap.EndRow();
  }
  return std::move(lap).Build();
}

CsrMatrix ScaleLaplacian(const CsrMatrix& laplacian, double lambda_max,
                         int active_n) {
  // EstimateLambdaMax returns at least 1e-6, and the approximation is 2.
  CASCN_CHECK(lambda_max > 0) << "lambda_max must be positive";
  // The encoder's active_n is min(cascade size, padded size), both >= 1.
  CASCN_CHECK(active_n >= 1 && active_n <= laplacian.rows());
  // 2 L / lambda_max - I on the active block only; the padded region stays
  // identically zero so padding nodes never mix into the signal. Each row
  // merges L's entries with the diagonal's -1 in column order; a diagonal L
  // holds becomes scale * L_ii + (-1.0).
  const auto& offsets = laplacian.row_offsets();
  const auto& cols = laplacian.col_indices();
  const auto& vals = laplacian.values();
  const double scale = 2.0 / lambda_max;
  CsrRowBuilder out(laplacian.rows(), laplacian.cols(),
                    laplacian.nnz() + active_n);
  for (int r = 0; r < laplacian.rows(); ++r) {
    bool diagonal = r < active_n;
    for (int k = offsets[r]; k < offsets[r + 1]; ++k) {
      if (diagonal && cols[k] >= r) {
        diagonal = false;
        if (cols[k] == r) {
          out.Append(r, scale * vals[k] + -1.0);
          continue;
        }
        out.Append(r, -1.0);
      }
      out.Append(cols[k], scale * vals[k]);
    }
    if (diagonal) out.Append(r, -1.0);
    out.EndRow();
  }
  return std::move(out).Build();
}

double EstimateLambdaMax(const CsrMatrix& laplacian, int active_n) {
  if (active_n <= 1) return 2.0;
  const double lambda = PowerIterationLargestEigenvalue(laplacian);
  if (!std::isfinite(lambda) || lambda < 1e-6) return 2.0;
  return lambda;
}

}  // namespace cascn

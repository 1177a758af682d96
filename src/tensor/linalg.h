// Dense and sparse linear-algebra routines that fall outside the autodiff
// graph: SPD solves (ridge regression baseline), power iteration (largest
// Laplacian eigenvalue, stationary distributions), and PCA support.

#ifndef CASCN_TENSOR_LINALG_H_
#define CASCN_TENSOR_LINALG_H_

#include <vector>

#include "common/result.h"
#include "tensor/csr_matrix.h"
#include "tensor/tensor.h"

namespace cascn {

/// Cholesky factorisation A = L L^T of a symmetric positive-definite matrix.
/// Returns the lower-triangular factor, or FailedPrecondition when A is not
/// (numerically) positive definite.
Result<Tensor> CholeskyFactor(const Tensor& a);

/// Solves A x = b for SPD A via Cholesky. b may have multiple columns.
Result<Tensor> SolveSpd(const Tensor& a, const Tensor& b);

/// Largest-magnitude eigenvalue of a square matrix estimated by power
/// iteration with Rayleigh quotients. For non-symmetric operators (directed
/// cascade Laplacians) the dominant eigenvalue may be complex; we iterate on
/// the symmetric part (A + A^T)/2, whose largest eigenvalue upper-bounds the
/// real spectral abscissa and is the standard surrogate for Chebyshev filter
/// scaling. Deterministic: starts from the all-ones vector, normalised over
/// all rows. The iteration runs densely on the leading block that holds
/// every entry (a padded cascade operator's active block): the rows and
/// columns past it add only exact zeros, so the result has the bits of an
/// iteration over every row. Pre: finite values.
double PowerIterationLargestEigenvalue(const CsrMatrix& a, int iterations = 64);

/// Left stationary distribution of a row-stochastic matrix P: the phi with
/// phi^T P = phi^T, sum(phi) = 1, found by power iteration from the uniform
/// distribution. Each step sums P^T phi over rows in ascending order,
/// normalises by the sum and stops once no entry moved by `tolerance` or
/// more. Returns FailedPrecondition when iteration fails to converge to
/// tolerance (e.g., P not irreducible). `p` must be square, with finite
/// values.
Result<std::vector<double>> StationaryDistribution(const Tensor& p,
                                                   int max_iterations = 1000,
                                                   double tolerance = 1e-10);

/// First `k` principal components of the rows of `x` (observations x
/// features). Returns a features x k matrix of components; projections are
/// (x - mean) * components. Uses orthogonalised power iteration on the
/// covariance.
Tensor PrincipalComponents(const Tensor& x, int k, int iterations = 128);

}  // namespace cascn

#endif  // CASCN_TENSOR_LINALG_H_

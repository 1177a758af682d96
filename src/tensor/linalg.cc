#include "tensor/linalg.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace cascn {

Result<Tensor> CholeskyFactor(const Tensor& a) {
  if (a.rows() != a.cols())
    return Status::InvalidArgument("Cholesky requires a square matrix");
  const int n = a.rows();
  Tensor l(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      double sum = a.At(i, j);
      for (int k = 0; k < j; ++k) sum -= l.At(i, k) * l.At(j, k);
      if (i == j) {
        if (sum <= 0.0)
          return Status::FailedPrecondition(
              "matrix is not positive definite");
        l.At(i, i) = std::sqrt(sum);
      } else {
        l.At(i, j) = sum / l.At(j, j);
      }
    }
  }
  return l;
}

Result<Tensor> SolveSpd(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows())
    return Status::InvalidArgument("SolveSpd dimension mismatch");
  CASCN_ASSIGN_OR_RETURN(Tensor l, CholeskyFactor(a));
  const int n = a.rows();
  const int m = b.cols();
  // Forward solve L y = b.
  Tensor y(n, m);
  for (int c = 0; c < m; ++c) {
    for (int i = 0; i < n; ++i) {
      double sum = b.At(i, c);
      for (int k = 0; k < i; ++k) sum -= l.At(i, k) * y.At(k, c);
      y.At(i, c) = sum / l.At(i, i);
    }
  }
  // Back solve L^T x = y.
  Tensor x(n, m);
  for (int c = 0; c < m; ++c) {
    for (int i = n - 1; i >= 0; --i) {
      double sum = y.At(i, c);
      for (int k = i + 1; k < n; ++k) sum -= l.At(k, i) * x.At(k, c);
      x.At(i, c) = sum / l.At(i, i);
    }
  }
  return x;
}

namespace {

/// out[i] += in[i] * s for i in [0, n): one term added to each of n
/// independent sums, so the loop vectorizes without reordering any sum.
void AddScaled(double* __restrict out, const double* __restrict in,
               double s, int n) {
  for (int i = 0; i < n; ++i) out[i] += in[i] * s;
}

}  // namespace

double PowerIterationLargestEigenvalue(const CsrMatrix& a, int iterations) {
  CASCN_CHECK(a.rows() == a.cols());
  const int n = a.rows();
  if (n == 0) return 0.0;
  // The leading m x m block holds every entry; a row lists its columns in
  // ascending order, so its last entry has its largest column.
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_indices();
  const auto& vals = a.values();
  int m = 0;
  for (int r = 0; r < n; ++r)
    if (offsets[r] < offsets[r + 1])
      m = std::max({m, r + 1, cols[offsets[r + 1] - 1] + 1});
  // The block and its transpose, both row-major, so that A x sums each row
  // and A^T x each column in ascending order from +0.0, as the sparse
  // gather and scatter did: a missing entry adds an exact zero, which
  // changes no sum.
  std::vector<double> block(2 * static_cast<size_t>(m) * m, 0.0);
  double* const at = block.data() + static_cast<size_t>(m) * m;
  for (int r = 0; r < m; ++r)
    for (int k = offsets[r]; k < offsets[r + 1]; ++k) {
      block[static_cast<size_t>(r) * m + cols[k]] = vals[k];
      at[static_cast<size_t>(cols[k]) * m + r] = vals[k];
    }
  // S = (A + A^T)/2 is applied as two sums per entry. The x_0 entries past
  // the block count in the first step's x.x; their S x entries are zeros,
  // so x is zero there from then on and they add only exact zeros.
  const double x0 = 1.0 / std::sqrt(static_cast<double>(n));
  std::vector<double> x(m, x0), ax(m), atx(m);
  double lambda = 0.0;
  for (int it = 0; it < iterations; ++it) {
    std::fill(ax.begin(), ax.end(), 0.0);
    std::fill(atx.begin(), atx.end(), 0.0);
    for (int c = 0; c < m; ++c)
      AddScaled(ax.data(), at + static_cast<size_t>(c) * m, x[c], m);
    for (int r = 0; r < m; ++r)
      AddScaled(atx.data(), block.data() + static_cast<size_t>(r) * m, x[r],
                m);
    double num = 0, den = 0, sq = 0;
    for (int i = 0; i < m; ++i) {
      ax[i] = (ax[i] + atx[i]) * 0.5;
      num += x[i] * ax[i];
      den += x[i] * x[i];
      sq += ax[i] * ax[i];
    }
    if (it == 0)
      for (int i = m; i < n; ++i) den += x0 * x0;
    lambda = den > 0 ? num / den : 0.0;
    const double norm = std::sqrt(sq);
    if (norm < 1e-30) return 0.0;
    const double inv_norm = 1.0 / norm;
    for (double& v : ax) v *= inv_norm;
    x.swap(ax);
  }
  return std::fabs(lambda);
}

Result<std::vector<double>> StationaryDistribution(const Tensor& p,
                                                   int max_iterations,
                                                   double tolerance) {
  if (p.rows() != p.cols())
    return Status::InvalidArgument("transition matrix must be square");
  const int n = p.rows();
  if (n == 0) return Status::InvalidArgument("empty transition matrix");
  std::vector<double> phi(n, 1.0 / n), next(n);
  for (int it = 0; it < max_iterations; ++it) {
    // next = P^T phi (the left eigenvector through the transpose).
    std::fill(next.begin(), next.end(), 0.0);
    for (int r = 0; r < n; ++r)
      AddScaled(next.data(), p.data() + static_cast<size_t>(r) * n, phi[r],
                n);
    double sum = 0;
    for (const double v : next) sum += v;
    if (sum <= 0)
      return Status::FailedPrecondition("stationary iteration degenerated");
    const double inv_sum = 1.0 / sum;
    double delta = 0;
    for (int i = 0; i < n; ++i) {
      next[i] *= inv_sum;
      delta = std::max(delta, std::fabs(next[i] - phi[i]));
    }
    phi.swap(next);
    if (delta < tolerance) return phi;
  }
  return Status::FailedPrecondition(
      "stationary distribution did not converge");
}

Tensor PrincipalComponents(const Tensor& x, int k, int iterations) {
  CASCN_CHECK(k > 0 && k <= x.cols());
  const int d = x.cols();
  // Covariance of centred rows.
  Tensor mean = x.ColSums();
  mean.Scale(1.0 / std::max(1, x.rows()));
  Tensor centred = x;
  for (int i = 0; i < x.rows(); ++i)
    for (int j = 0; j < d; ++j) centred.At(i, j) -= mean.At(0, j);
  Tensor cov = MatMulTransposeA(centred, centred);
  cov.Scale(1.0 / std::max(1, x.rows() - 1));

  Tensor components(d, k);
  Rng rng(0xC0FFEE);
  for (int c = 0; c < k; ++c) {
    Tensor v = Tensor::RandomNormal(d, 1, 1.0, rng);
    for (int it = 0; it < iterations; ++it) {
      Tensor av = MatMul(cov, v);
      // Deflate: remove projections onto previous components.
      for (int p = 0; p < c; ++p) {
        double dot = 0;
        for (int i = 0; i < d; ++i) dot += av.At(i, 0) * components.At(i, p);
        for (int i = 0; i < d; ++i) av.At(i, 0) -= dot * components.At(i, p);
      }
      const double norm = av.Norm();
      if (norm < 1e-30) break;
      av.Scale(1.0 / norm);
      v = std::move(av);
    }
    for (int i = 0; i < d; ++i) components.At(i, c) = v.At(i, 0);
  }
  return components;
}

}  // namespace cascn

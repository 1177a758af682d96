#include "graph/chebyshev.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace cascn {

namespace {

/// Appends T_2, ..., T_{order-1} of `scaled_laplacian` to `basis`, which
/// holds T_0 and T_1.
void AppendRecurrence(const CsrMatrix& scaled_laplacian, int order,
                      int active_n, std::vector<CsrMatrix>& basis) {
  // T_k = 2 L~ T_{k-1} - T_{k-2}, densely on the active block. Row r of
  // P = L~ T_{k-1} sums over L~'s stored entries (r, m), m ascending, from
  // 0.0; P has an entry where that sum is not 0.0. T_k stores an entry
  // wherever P or T_{k-2} has one, a stored zero included, so its structure
  // and bits are those of the sparse product, scaling and sum.
  const int rows = scaled_laplacian.rows(), n = active_n;
  const auto& offsets = scaled_laplacian.row_offsets();
  const auto& cols = scaled_laplacian.col_indices();
  const auto& vals = scaled_laplacian.values();
  // ScaleLaplacian keeps every entry in the active block.
  CASCN_CHECK(offsets[n] == scaled_laplacian.nnz())
      << "the scaled Laplacian has entries past the active block";
  // Dense copies of T_{k-1} and T_k; a missing entry reads 0.0.
  std::vector<double> previous(static_cast<size_t>(n) * n, 0.0);
  std::vector<double> current(previous.size());
  for (int r = 0; r < n; ++r) {
    for (int e = offsets[r]; e < offsets[r + 1]; ++e) {
      CASCN_CHECK(cols[e] < n)
          << "the scaled Laplacian has entries past the active block";
      previous[static_cast<size_t>(r) * n + cols[e]] = vals[e];
    }
  }
  for (int k = 2; k < order; ++k) {
    const CsrMatrix& older = basis[k - 2];
    const auto& older_offsets = older.row_offsets();
    const auto& older_cols = older.col_indices();
    const auto& older_vals = older.values();
    CsrRowBuilder out(rows, rows, n * n);
    for (int r = 0; r < n; ++r) {
      // Row r of P, then of T_k in its place.
      double* const row = current.data() + static_cast<size_t>(r) * n;
      std::fill(row, row + n, 0.0);
      for (int e = offsets[r]; e < offsets[r + 1]; ++e) {
        const double v = vals[e];
        const double* const t =
            previous.data() + static_cast<size_t>(cols[e]) * n;
        for (int c = 0; c < n; ++c) row[c] += v * t[c];
      }
      int e = older_offsets[r];
      for (int c = 0; c < n; ++c) {
        const double p = row[c];
        const bool stored = e < older_offsets[r + 1] && older_cols[e] == c;
        if (p != 0.0) {
          row[c] = stored ? 2.0 * p - older_vals[e] : 2.0 * p;
        } else if (stored) {
          row[c] = -older_vals[e];
        } else {
          continue;  // neither has an entry: row[c] stays 0.0
        }
        out.Append(c, row[c]);
        e += stored;
      }
      out.EndRow();
    }
    basis.push_back(std::move(out).Build());
    previous.swap(current);
  }
}

}  // namespace

std::vector<CsrMatrix> ChebyshevBasis(const CsrMatrix& scaled_laplacian,
                                      int order, int active_n) {
  // Config parsing rejects a cheb_order below 1.
  CASCN_CHECK(order >= 1);
  CASCN_CHECK(scaled_laplacian.rows() == scaled_laplacian.cols());
  // The encoder's active_n is min(cascade size, padded size), both >= 1.
  CASCN_CHECK(active_n >= 1 && active_n <= scaled_laplacian.rows());
  std::vector<CsrMatrix> basis;
  basis.reserve(order);
  // T_0: identity over active nodes only.
  CsrRowBuilder eye(scaled_laplacian.rows(), scaled_laplacian.cols(),
                    active_n);
  for (int i = 0; i < active_n; ++i) {
    eye.Append(i, 1.0);
    eye.EndRow();
  }
  basis.push_back(std::move(eye).Build());
  if (order >= 2) basis.push_back(scaled_laplacian);
  if (order >= 3) AppendRecurrence(scaled_laplacian, order, active_n, basis);
  return basis;
}

}  // namespace cascn

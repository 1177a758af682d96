#include "graph/chebyshev.h"

#include "common/logging.h"

namespace cascn {

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
  for (int k = 2; k < order; ++k) {
    // T_k = 2 L~ T_{k-1} - T_{k-2}
    basis.push_back(scaled_laplacian.MatMulSparse(basis[k - 1])
                        .Scaled(2.0)
                        .Add(basis[k - 2], 1.0, -1.0));
  }
  return basis;
}

}  // namespace cascn

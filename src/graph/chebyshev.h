// Chebyshev polynomial basis of a scaled Laplacian:
//   T_0 = I, T_1 = L~, T_k = 2 L~ T_{k-1} - T_{k-2}   (Eq. 2)
// Precomputed once per cascade and shared by every gate convolution of the
// recurrent model.

#ifndef CASCN_GRAPH_CHEBYSHEV_H_
#define CASCN_GRAPH_CHEBYSHEV_H_

#include <vector>

#include "tensor/csr_matrix.h"

namespace cascn {

/// Returns {T_0, ..., T_{order-1}} of `scaled_laplacian`. The identity term
/// T_0 is restricted to the top-left `active_n` block so padded nodes stay
/// silent, and T_k for k >= 2 is built densely on that block. Pre: order >=
/// 1, square input; from order 3 on, every entry of `scaled_laplacian` lies
/// in the active block, as ScaleLaplacian's do.
std::vector<CsrMatrix> ChebyshevBasis(const CsrMatrix& scaled_laplacian,
                                      int order, int active_n);

}  // namespace cascn

#endif  // CASCN_GRAPH_CHEBYSHEV_H_

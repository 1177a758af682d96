// The row kernels of the graph-convolutional cells' filter products
// (nn/graph_rnn_cells.cc): Σ_k (T_k s) W_k, Σ_k P_k W_k, and the BPTT
// backward's (T_k h)^T A, A W^T and P^T A. Internal to the nn library and
// its tests.
//
// Each kernel is compiled twice from one always-inlined body: once for the
// baseline target (x86-64: SSE2, two doubles per operation) and once inside
// a function with the GCC attribute target("avx2"), four doubles per
// operation. Both give the same bits. AVX2 does the same per-lane IEEE
// multiply and add as SSE2, the attribute enables no FMA (so no product
// fuses into a sum), and GCC reassociates no floating-point sum without
// -ffast-math, so every output element gets the same operations in the same
// order; only the number of lanes differs. HostFilterKernels() picks the
// AVX2 set once per process where the CPU has AVX2.

#ifndef CASCN_NN_FILTER_KERNELS_H_
#define CASCN_NN_FILTER_KERNELS_H_

#include <utility>
#include <vector>

#include "tensor/csr_matrix.h"

namespace cascn::nn::internal {

/// One compiled set of the five kernels.
struct FilterKernels {
  /// Rows [0, rows) of sum_k (T_k s) W_k into `out` (rows x width), for a
  /// signal s (n x in), `basis` T_0..T_{K-1} (n x n) and W_k block k of
  /// `packed` (in x width each); `propagated` receives T_k s, block k of
  /// rows x in. Element by element it is the recorded ops' arithmetic:
  /// each row of T_k s gathers its CSR entries in order from zero
  /// (CsrMatrix::MatMulDense), and the product skips the zero entries of
  /// T_k s (MatMulAccum).
  void (*filter_rows)(const std::vector<CsrMatrix>& basis, int rows,
                      const double* s, int in,
                      const std::vector<double>& packed, int width,
                      double* out, std::vector<double>& propagated);

  /// Rows [0, rows) of sum_k P_k W_k into `out` (rows x width), for the
  /// snapshot operators P_k = T_k X (n x n), block k of the `order` blocks
  /// of n rows of `ops` restricted to `columns`, and W_k block k of
  /// `packed` (n x width each). It is filter_rows' product over X: a row of
  /// P_k holds, in ascending column order, exactly the nonzeros of that row
  /// of T_k X, which are the entries filter_rows' product does not skip,
  /// with the same values, so it skips none of them. `runs` is scratch.
  void (*filter_operators)(const CsrMatrix& ops, ColumnRange columns,
                           int order, int rows,
                           const std::vector<double>& packed, int width,
                           std::vector<std::pair<int, int>>& runs,
                           double* out);

  /// out (in x width) = P^T A for P (rows x in) and A (rows x width, rows
  /// `stride` apart): MatMulTransposeA for every gate's block of A at once.
  /// Row i of out sums over the rows of P in ascending order, skipping P's
  /// zero entries. A caller may pass fewer rows than P has when the rest
  /// of P is zero.
  void (*products_transpose_a)(const double* p, int rows, int in,
                               const double* a, int stride, int width,
                               double* out);

  /// Rows [0, rows) of s = [a_0 W_0^T | ... | a_{count-1} W_{count-1}^T]
  /// (count d wide), for the gradients a_j side by side in `a` (rows
  /// `stride` apart) and W_j^T (d x d) in wt[j]: MatMulTransposeB per gate.
  /// Block j of a row sums over the rows of W_j^T, p ascending, skipping
  /// nothing, as MatMulTransposeB's dot product adds them.
  void (*products_transpose_b)(const double* a, int rows, int stride,
                               int count, int d, const double* const* wt,
                               double* s);

  /// out (cols x width) = B^T s for B rows [first, first + rows) of t
  /// restricted to `columns` and s (rows x width, rows `stride` apart):
  /// CsrMatrix::TransposeMatMulDense, for the columns of every gate at
  /// once. For a snapshot operator P = T_k X it is MatMulTransposeA over
  /// the dense T_k X: each element adds the rows in ascending order,
  /// skipping exact zeros.
  void (*scatter_transpose)(const CsrMatrix& t, int first, int rows,
                            ColumnRange columns, const double* s, int stride,
                            int width, double* out);
};

/// The kernels compiled for the baseline target.
extern const FilterKernels kBaselineFilterKernels;
/// The same kernels compiled for AVX2 without FMA. Call them only where
/// HostHasAvx2(). (On a target other than x86 they are a second baseline
/// build.)
extern const FilterKernels kAvx2FilterKernels;

/// Whether this CPU runs AVX2 instructions.
bool HostHasAvx2();

/// kAvx2FilterKernels where the host has AVX2, kBaselineFilterKernels
/// otherwise, chosen at the first call.
const FilterKernels& HostFilterKernels();

}  // namespace cascn::nn::internal

#endif  // CASCN_NN_FILTER_KERNELS_H_

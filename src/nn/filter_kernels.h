// The row kernels of the graph-convolutional cells (nn/graph_rnn_cells.cc):
// the filter products Σ_k (T_k s) W_k, Σ_k P_k W_k, and the BPTT
// backward's (T_k h)^T A, A W^T and P^T A; and the gate passes that turn
// the filtered terms into the LSTM's and GRU's gates and states. Internal
// to the nn library and its tests.
//
// Each kernel is compiled twice from one always-inlined body: once for the
// baseline target (x86-64: SSE2, two doubles per operation) and once inside
// a function with the GCC attribute target("avx2"), four doubles per
// operation. Both give the same bits. AVX2 does the same per-lane IEEE
// multiply and add as SSE2, the attribute enables no FMA (so no product
// fuses into a sum), and GCC reassociates no floating-point sum without
// -ffast-math, so every output element gets the same operations in the same
// order; only the number of lanes differs. The gate passes run each row's
// columns through the lanes forms of Sigmoid and Tanh (common/math_util.h),
// two at a time in the baseline build and four in the AVX2 one, so every
// element gets the scalar functions' operations and bits.
// HostFilterKernels() picks the AVX2 set once per process where the CPU has
// AVX2.

#ifndef CASCN_NN_FILTER_KERNELS_H_
#define CASCN_NN_FILTER_KERNELS_H_

#include <utility>
#include <vector>

#include "tensor/csr_matrix.h"

namespace cascn::nn::internal {

/// The operands of the LSTM gate pass (Eq. 12-14). Per element, in this
/// order: i, f = Sigmoid(((x + h) + b) + v (.) c_{t-1}), g = Tanh((x + h) +
/// b_c), c_t = f (.) c_{t-1} + i (.) g, o = Sigmoid(((x + h) + b_o) + v_o
/// (.) c_t), h_t = o (.) Tanh(c_t).
struct LstmGates {
  /// What a recorded step keeps, one n x d block each, in this order: the
  /// four gates and tanh(c_t) for the backward, and the output gate's X
  /// term.
  enum Kept { kI, kF, kG, kO, kTanhC, kXo, kNumKept };
  int n, d;
  /// Every gate's filtered X and h terms side by side, rows 4d wide in gate
  /// order i, f, c, o.
  const double *xs, *hs;
  /// The peepholes (n x d) and biases (d).
  const double *v_i, *v_f, *v_o, *b_i, *b_f, *b_c, *b_o;
  /// c_{t-1} (n x d), overwritten with c_t.
  double* c;
};

/// The operands of the GRU gate passes: r, z = Sigmoid((x + h) + b), then,
/// once U_n has filtered r (.) h_{t-1}, n = Tanh((x_n + hn) + b_n) and
/// h_t = n + z (.) (h_{t-1} - n).
struct GruGates {
  /// What a recorded step keeps, one n x d block each: the three gates and
  /// the X terms of r and n.
  enum Kept { kR, kZ, kN, kXr, kXn, kNumKept };
  int n, d;
  /// The X terms of r, z, n (rows 3d wide) and the h terms of r, z (rows
  /// 2d wide), side by side in that order.
  const double *xs, *hs;
  /// U_n *G (r (.) h_{t-1}) (n x d), read by the output pass.
  const double* hn;
  const double *b_r, *b_z, *b_n;
  /// z and r (.) h_{t-1} (n x d each): written by the reset pass, z read by
  /// the output pass.
  double *z, *rh;
};

/// One compiled set of the filter products and gate passes.
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

  /// The LSTM gates of rows [0, rows): c_t into g.c, h_t into h_next
  /// (n x d), and with `keep` (LstmGates::kNumKept blocks of n x d) what a
  /// recorded step keeps.
  void (*lstm_gates)(const LstmGates& g, int rows, double* h_next,
                     double* keep);

  /// The GRU's r and z of rows [0, rows), with z and r (.) h into g.z and
  /// g.rh; with `keep`, r and r's X term.
  void (*gru_reset_gate)(const GruGates& g, int rows, const double* h,
                         double* keep);

  /// The GRU's candidate n and h_t of rows [0, rows) into h_next; with
  /// `keep`, z, n and n's X term.
  void (*gru_output)(const GruGates& g, int rows, const double* h,
                     double* h_next, double* keep);
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

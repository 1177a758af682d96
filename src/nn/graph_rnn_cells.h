// Graph-convolutional recurrent cells: the structural-temporal core of
// CasCN (Section IV-C, Eq. 12-14). A standard LSTM's dense input/hidden
// multiplications are replaced by Chebyshev graph convolutions over the
// cascade Laplacian, and peephole connections V (.) c couple the gates to
// the memory cell:
//
//   i_t = sigmoid(W_i *G X_t + U_i *G h_{t-1} + V_i (.) c_{t-1} + b_i)
//   f_t = sigmoid(W_f *G X_t + U_f *G h_{t-1} + V_f (.) c_{t-1} + b_f)
//   c_t = f_t (.) c_{t-1} + i_t (.) tanh(W_c *G X_t + U_c *G h_{t-1} + b_c)
//   o_t = sigmoid(W_o *G X_t + U_o *G h_{t-1} + V_o (.) c_t + b_o)
//   h_t = o_t (.) tanh(c_t)
//
// State lives per node: X_t is the (n x n) adjacency snapshot signal, h and
// c are (n x hidden). `n` is the padded cascade size fixed by the model
// configuration; the peephole matrices are (n x hidden) exactly as in the
// paper (V in R^{n x d_h}).
//
// GraphConvGruCell is the CasCN-GRU variant: same graph convolutions with
// GRU gating and no separate memory cell.
//
// Both cells run one fused kernel instead of a graph of per-gate ag ops
// (ChebConv::Forward per gate and signal; graph_rnn_test keeps that graph
// as the oracle). Every gate filters the same T_k(L~) X_t and
// T_k(L~) h_{t-1}. T_k X_t is a constant of the sample, so a step takes X_t
// as its snapshot operators P_k = T_k X_t, built once by the encoder
// (core/encoder.h) as sparse matrices, one block per order that every
// snapshot reads in its own column range, and propagates only h_{t-1},
// once.
// The gate filters are packed side by side so a step makes one product per
// signal, summing every Chebyshev order's term in one row kernel with the
// per-gate graph's arithmetic; and the gates are evaluated in one pointwise
// pass in that graph's operation order, so values are bit-identical to it:
// a row of P_k holds, in ascending column order, exactly the entries of
// T_k X_t that the dense products do not skip as zero.
//
// Run (values only) and RunRecorded (grad mode) take a whole snapshot
// sequence, Run from the zero state. Both skip the rows no T_k reaches (the
// padding past the cascade): their filtered terms are exactly zero, so
// from the zero state their h_t, c_t and gate activations depend only on t
// and the row-local parameters (peepholes and biases). They are copied from
// a table the cell builds once per parameter values (see
// internal::PaddingTableCache). Step runs one step from any state, so it
// computes every row.
//
// RunRecorded, and Step with grad mode on, record a few ag nodes per step
// (ag::RecordOp) whose backward is hand-written backpropagation through
// time: it hands every parameter, h_{t-1} and c_{t-1} the contributions the
// per-gate graph would, computed the same way and in the order that graph's
// Backward() adds them, so trained weights are bit-identical (DESIGN.md,
// "The recorded step"). The backward forms every gate's pre-activation
// gradient first and then makes each filter product once per Chebyshev
// order for all gates. X_t takes no gradient; an X filter W_k's gradient is
// P_k^T times its gate's pre-activation gradient. A recorded sequence
// shares the basis and P with their owner instead of copying them.

#ifndef CASCN_NN_GRAPH_RNN_CELLS_H_
#define CASCN_NN_GRAPH_RNN_CELLS_H_

#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "nn/cheb_conv.h"
#include "nn/module.h"
#include "nn/rnn_cells.h"

namespace cascn::nn {

/// A cascade's Chebyshev basis T_0..T_{K-1} (each n x n), shared with its
/// owner. CascnModel passes aliasing pointers into its cached encoding, so a
/// recorded step keeps the basis alive until its backward has run, even if
/// the encoding is evicted first.
using SharedBasis = std::shared_ptr<const std::vector<CsrMatrix>>;

/// One snapshot's operators P_k = T_k X_t for k = 0..K-1: row block k of
/// `blocks` ((K n) x n, block k = T_k X), read in `columns`, where X equals
/// X_t on those columns and X_t has no entries elsewhere.
/// EncodedCascade::snapshot_ops is such a `blocks` for every snapshot of a
/// sample, each in its own columns. Shared with its owner as SharedBasis
/// is.
struct SnapshotOperators {
  std::shared_ptr<const CsrMatrix> blocks;
  ColumnRange columns;
};

namespace internal {

class FusedLstm;
class FusedGru;

/// Every row of a graph-convolutional cell run from the zero state on zero
/// graph input, for steps 0..depth-1: the trajectory of every row that no
/// T_k reaches, whatever the cascade.
struct PaddingTable {
  /// One step: h_t and the LSTM's c_t (empty for the GRU), n x hidden, and
  /// the gate activations a recorded step keeps for its backward.
  struct Step {
    Tensor h, c;
    std::vector<double> kept;
  };
  std::vector<double> key;  // row-local parameter bytes it was built from
  std::vector<Step> steps;
};

/// A cell's PaddingTable, rebuilt whenever the row-local parameters it was
/// built from change (an optimizer step, a checkpoint load, a direct edit)
/// or a forward runs deeper than it. Thread-safe: the table is immutable
/// and shared, and the mutex guards only the pointer and a rebuild; a
/// forward compares its parameters against a copy of the pointer.
class PaddingTableCache {
 public:
  /// A table at least `depth` steps deep for the current values of
  /// `params`. `build(depth)` returns the table's steps; it runs
  /// when the bytes of `params` differ from the stored key or the stored
  /// table is shallower, and keeps the deepest depth seen.
  template <typename Build>
  std::shared_ptr<const PaddingTable> Get(
      const std::vector<const Tensor*>& params, int depth, Build&& build);

 private:
  std::mutex mutex_;
  std::shared_ptr<const PaddingTable> table_;
};

}  // namespace internal

/// LSTM cell whose gates are Chebyshev graph convolutions (CasCN Eq. 12-14).
class GraphConvLstmCell : public Module {
 public:
  /// `num_nodes` is the padded cascade size n (also the input feature width,
  /// because the snapshot signal X_t is the n x n adjacency matrix).
  GraphConvLstmCell(int num_nodes, int hidden_dim, int cheb_order, Rng& rng);

  RnnState InitialState() const;

  /// One step over a snapshot given as its operators P_k = T_k X_t, with
  /// the cascade's Chebyshev basis (shared across steps; the Laplacian is
  /// per-cascade, not per-snapshot). Records the step when grad mode is on,
  /// holding both until its backward runs; under ag::NoGradGuard it returns
  /// leaf states.
  RnnState Step(SharedBasis cheb_basis, SnapshotOperators snapshot_ops,
                const RnnState& prev) const;

  /// The same step over a dense snapshot signal `x` (n x n, needing no
  /// gradient): builds P_k = T_k x, read in columns [0, n), and calls the
  /// step above. For callers that hold a dense X_t.
  RnnState Step(const std::vector<CsrMatrix>& cheb_basis,
                const ag::Variable& x, const RnnState& prev) const;

  /// Values-only run over a whole snapshot sequence from InitialState(),
  /// given as EncodedCascade holds its operators: step t reads the blocks
  /// of `snapshot_ops` in columns[t], as SnapshotOperators{blocks,
  /// columns[t]}. h_t for every step, bit-identical to a Step loop. Rows no
  /// T_k reaches come from the padding table.
  std::vector<Tensor> Run(const std::vector<CsrMatrix>& cheb_basis,
                          const CsrMatrix& snapshot_ops,
                          const std::vector<ColumnRange>& columns) const;

  /// Run's recorded counterpart, from `initial` (InitialState(), or a
  /// state whose leaves take a gradient): the state after every step, each
  /// step recording the nodes Step records, with the same parents in the
  /// same order and bit-identical values and gradients. The padding rows
  /// come from the table when `initial` is +0.0 on them, as InitialState()
  /// is; otherwise every row runs the kernel. Holds the basis and the
  /// operators until the backward has run.
  std::vector<RnnState> RunRecorded(
      SharedBasis cheb_basis, std::shared_ptr<const CsrMatrix> snapshot_ops,
      std::vector<ColumnRange> columns, const RnnState& initial) const;

  int num_nodes() const { return num_nodes_; }
  int hidden_dim() const { return hidden_dim_; }
  int cheb_order() const { return conv_x_i_->order(); }

 private:
  friend class internal::FusedLstm;

  int num_nodes_;
  int hidden_dim_;
  // Graph-convolution filter banks per gate, for input X and hidden h.
  std::unique_ptr<ChebConv> conv_x_i_, conv_x_f_, conv_x_o_, conv_x_c_;
  std::unique_ptr<ChebConv> conv_h_i_, conv_h_f_, conv_h_o_, conv_h_c_;
  // Peephole weights (n x hidden) and biases (1 x hidden).
  ag::Variable v_i_, v_f_, v_o_;
  ag::Variable b_i_, b_f_, b_o_, b_c_;
  mutable internal::PaddingTableCache padding_;
};

/// GRU counterpart used by the CasCN-GRU variant (Table IV).
class GraphConvGruCell : public Module {
 public:
  GraphConvGruCell(int num_nodes, int hidden_dim, int cheb_order, Rng& rng);

  RnnState InitialState() const;
  /// As GraphConvLstmCell::Step.
  RnnState Step(SharedBasis cheb_basis, SnapshotOperators snapshot_ops,
                const RnnState& prev) const;
  /// As GraphConvLstmCell's dense-signal Step.
  RnnState Step(const std::vector<CsrMatrix>& cheb_basis,
                const ag::Variable& x, const RnnState& prev) const;
  /// As GraphConvLstmCell::Run.
  std::vector<Tensor> Run(const std::vector<CsrMatrix>& cheb_basis,
                          const CsrMatrix& snapshot_ops,
                          const std::vector<ColumnRange>& columns) const;
  /// As GraphConvLstmCell::RunRecorded.
  std::vector<RnnState> RunRecorded(
      SharedBasis cheb_basis, std::shared_ptr<const CsrMatrix> snapshot_ops,
      std::vector<ColumnRange> columns, const RnnState& initial) const;

  int num_nodes() const { return num_nodes_; }
  int hidden_dim() const { return hidden_dim_; }
  int cheb_order() const { return conv_x_r_->order(); }

 private:
  friend class internal::FusedGru;

  int num_nodes_;
  int hidden_dim_;
  std::unique_ptr<ChebConv> conv_x_r_, conv_x_z_, conv_x_n_;
  std::unique_ptr<ChebConv> conv_h_r_, conv_h_z_, conv_h_n_;
  ag::Variable b_r_, b_z_, b_n_;
  mutable internal::PaddingTableCache padding_;
};

}  // namespace cascn::nn

#endif  // CASCN_NN_GRAPH_RNN_CELLS_H_

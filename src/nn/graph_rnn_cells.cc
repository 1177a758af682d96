#include "nn/graph_rnn_cells.h"

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <utility>

#include "common/logging.h"
#include "common/math_util.h"
#include "nn/filter_kernels.h"
#include "obs/trace.h"

namespace cascn::nn {

namespace internal {

template <typename Build>
std::shared_ptr<const PaddingTable> PaddingTableCache::Get(
    const std::vector<const Tensor*>& params, int depth, Build&& build) {
  std::lock_guard<std::mutex> lock(mutex_);
  int deepest = 0;
  if (table_ != nullptr) {
    deepest = static_cast<int>(table_->steps.size());
    size_t offset = 0;
    bool same = true;
    for (const Tensor* p : params) {
      const size_t n = static_cast<size_t>(p->size());
      same = same && offset + n <= table_->key.size() &&
             std::memcmp(table_->key.data() + offset, p->data(),
                         n * sizeof(double)) == 0;
      offset += n;
    }
    if (same && offset == table_->key.size() && deepest >= depth)
      return table_;
  }
  auto table = std::make_shared<PaddingTable>();
  for (const Tensor* p : params)
    table->key.insert(table->key.end(), p->data(), p->data() + p->size());
  table->steps = build(std::max(depth, deepest));
  table_ = std::move(table);
  return table_;
}

namespace {

/// One past the last row in which any T_k has an entry. Every row of
/// T_k s from there on is zero, whatever the signal s.
int ReachedRows(const std::vector<CsrMatrix>& basis) {
  int reached = 0;
  for (const CsrMatrix& t : basis) {
    const auto& offsets = t.row_offsets();
    int r = t.rows();
    while (r > reached && offsets[r] == offsets[r - 1]) --r;
    reached = std::max(reached, r);
  }
  return reached;
}

/// The filters of `convs` side by side, one block per Chebyshev order k:
/// block k is in x (convs.size() * out), with conv g's W_k in columns
/// [g * out, (g + 1) * out). A product against a block sums each element
/// over the same p, in the same order, as a product against one W_k.
std::vector<double> PackFilters(std::initializer_list<const ChebConv*> convs) {
  const ChebConv& first = **convs.begin();
  const int in = first.in_features(), out = first.out_features();
  const int width = static_cast<int>(convs.size()) * out;
  std::vector<double> packed(static_cast<size_t>(first.order()) * in * width);
  for (int k = 0; k < first.order(); ++k) {
    double* block = packed.data() + static_cast<size_t>(k) * in * width;
    int g = 0;
    for (const ChebConv* conv : convs) {
      const double* w = conv->filter(k).data();
      for (int p = 0; p < in; ++p)
        std::copy(w + p * out, w + (p + 1) * out, block + p * width + g * out);
      ++g;
    }
  }
  return packed;
}

/// `basis` is T_0..T_{K-1} for K = `order`, each n x n.
void CheckBasis(const std::vector<CsrMatrix>& basis, int order, int n) {
  CASCN_CHECK(static_cast<int>(basis.size()) == order)
      << "Chebyshev basis order mismatch: basis has " << basis.size()
      << ", layer expects " << order;
  for (const CsrMatrix& t : basis)
    CASCN_CHECK(t.rows() == n && t.cols() == n) << "T_k must be n x n";
}

/// `ops` is `order` blocks of n x n, and `columns` lies in [0, n).
void CheckSnapshotOperators(const CsrMatrix& ops, ColumnRange columns,
                            int order, int n) {
  CASCN_CHECK(ops.cols() == n && ops.rows() == order * n &&
              0 <= columns.begin && columns.begin <= columns.end &&
              columns.end <= n)
      << "snapshot operators must be " << order
      << " blocks of n x n, read in columns within [0, n)";
}

/// A dense snapshot signal's operators P_k = T_k x, built as the encoder
/// builds them from a sparse X_t.
SnapshotOperators SignalOperators(const std::vector<CsrMatrix>& basis,
                                  const ag::Variable& x, int n) {
  CASCN_CHECK(x.rows() == n && x.cols() == n)
      << "snapshot signal must be n x n";
  CASCN_CHECK(!x.needs_grad()) << "snapshot signal must need no gradient";
  return {std::make_shared<const CsrMatrix>(
              StackedProducts(basis, CsrMatrix::FromDense(x.value()))),
          {0, n}};
}

/// Rows [rows, n) of each of `blocks` n x d blocks, from `from` into `to`.
void CopyRowsFrom(int rows, int n, int d, int blocks, const double* from,
                  double* to) {
  const size_t nd = static_cast<size_t>(n) * d;
  const size_t skip = static_cast<size_t>(rows) * d;
  for (int b = 0; b < blocks; ++b)
    std::copy(from + b * nd + skip, from + (b + 1) * nd, to + b * nd + skip);
}

}  // namespace

struct LstmSequence;
struct GruSequence;

/// The LSTM kernel of one forward: the gate filters packed as
/// [W_i|W_f|W_c|W_o] per k, for X and for h, and the memory cell c.
class FusedLstm {
 public:
  using enum LstmGates::Kept;
  static constexpr bool kHasCell = true;
  /// The c_t node's parents before the cell's parameters: h_{t-1}, c_{t-1}.
  static constexpr int kParentSlots = 2;

  explicit FusedLstm(const GraphConvLstmCell& cell)
      : n(cell.num_nodes_),
        d(cell.hidden_dim_),
        order(cell.cheb_order()),
        c(n, d),
        wx_(PackFilters({cell.conv_x_i_.get(), cell.conv_x_f_.get(),
                         cell.conv_x_c_.get(), cell.conv_x_o_.get()})),
        wh_(PackFilters({cell.conv_h_i_.get(), cell.conv_h_f_.get(),
                         cell.conv_h_c_.get(), cell.conv_h_o_.get()})),
        v_i_(cell.v_i_.value().data()),
        v_f_(cell.v_f_.value().data()),
        v_o_(cell.v_o_.value().data()),
        b_i_(cell.b_i_.value().data()),
        b_f_(cell.b_f_.value().data()),
        b_c_(cell.b_c_.value().data()),
        b_o_(cell.b_o_.value().data()) {}

  /// The parameters a row no T_k reaches depends on.
  static std::vector<const Tensor*> RowLocal(const GraphConvLstmCell& cell) {
    return {&cell.v_i_.value(), &cell.v_f_.value(), &cell.v_o_.value(),
            &cell.b_i_.value(), &cell.b_f_.value(), &cell.b_c_.value(),
            &cell.b_o_.value()};
  }

  /// Records rows [0, rows) of step t of `seq` from `prev`, whose c_{t-1}
  /// this kernel's c holds; with a table, the rows from there on are
  /// copied from its step t. `parents` is the cell's parameters after two
  /// slots for h_{t-1} and c_{t-1}.
  static RnnState Record(const std::shared_ptr<LstmSequence>& seq,
                         int t, FusedLstm& fused, const PaddingTable* table,
                         const RnnState& prev,
                         std::vector<ag::Variable>& parents);

  /// The record of a sequence whose step t reads the operators `ops` in
  /// columns[t] and computes rows [0, rows).
  static std::shared_ptr<LstmSequence> NewSequence(
      const GraphConvLstmCell& cell, SharedBasis basis,
      std::shared_ptr<const CsrMatrix> ops, std::vector<ColumnRange> columns,
      int rows);


  void Reset() { c.Zero(); }

  /// Rows [0, rows) of one step over the snapshot operators P_k = T_k X_t,
  /// `ops` in `columns`, and h_{t-1} (n x d): writes h_t into h_next and c_t
  /// into c, and with `keep` (kNumKept blocks of n x d) also what a
  /// recorded step keeps.
  void Step(const std::vector<CsrMatrix>& basis, const CsrMatrix& ops,
            ColumnRange columns, int rows, const double* h, double* h_next,
            double* keep) {
    Filter(basis, ops, columns, rows, h);
    Gates(rows, h_next, keep);
  }

  /// Every gate's filtered X and h terms for rows [0, rows); T_k h_{t-1}
  /// of those rows stays in ph.
  void Filter(const std::vector<CsrMatrix>& basis, const CsrMatrix& ops,
              ColumnRange columns, int rows, const double* h) {
    const int width = 4 * d;
    xs_.resize(static_cast<size_t>(n) * width);
    hs_.resize(static_cast<size_t>(n) * width);
    const FilterKernels& kernels = HostFilterKernels();
    kernels.filter_operators(ops, columns, order, rows, wx_, width, runs_,
                             xs_.data());
    kernels.filter_rows(basis, rows, h, d, wh_, width, hs_.data(), ph);
  }

  /// The gates of rows [0, rows) after Filter (LstmGates).
  void Gates(int rows, double* h_next, double* keep) {
    const LstmGates gates = {n,    d,    xs_.data(), hs_.data(), v_i_,
                             v_f_, v_o_, b_i_,       b_f_,       b_c_,
                             b_o_, c.data()};
    HostFilterKernels().lstm_gates(gates, rows, h_next, keep);
  }

  const int n, d, order;
  Tensor c;
  // T_k h_{t-1} of the last Filter, one block per k.
  std::vector<double> ph;

 private:
  const std::vector<double> wx_, wh_;
  const double *v_i_, *v_f_, *v_o_, *b_i_, *b_f_, *b_c_, *b_o_;
  std::vector<double> xs_, hs_;
  std::vector<std::pair<int, int>> runs_;
};

/// The GRU kernel of one forward: [W_r|W_z|W_n] per k for X, [U_r|U_z] per
/// k for h. U_n filters r (.) h, so it stays on its own.
class FusedGru {
 public:
  using enum GruGates::Kept;
  static constexpr bool kHasCell = false;
  /// The h_t node's parents before the cell's parameters: the X terms of n
  /// and r, and h_{t-1}.
  static constexpr int kParentSlots = 3;

  explicit FusedGru(const GraphConvGruCell& cell)
      : n(cell.num_nodes_),
        d(cell.hidden_dim_),
        order(cell.cheb_order()),
        wx_(PackFilters({cell.conv_x_r_.get(), cell.conv_x_z_.get(),
                         cell.conv_x_n_.get()})),
        wh_(PackFilters({cell.conv_h_r_.get(), cell.conv_h_z_.get()})),
        wn_(PackFilters({cell.conv_h_n_.get()})),
        b_r_(cell.b_r_.value().data()),
        b_z_(cell.b_z_.value().data()),
        b_n_(cell.b_n_.value().data()),
        r_pad_(d) {
    // The reset gate of a row no T_k reaches: its filtered terms are zero.
    for (int j = 0; j < d; ++j)
      r_pad_[j] = Sigmoid((0.0 + 0.0) + b_r_[j]);
  }

  static std::vector<const Tensor*> RowLocal(const GraphConvGruCell& cell) {
    return {&cell.b_r_.value(), &cell.b_z_.value(), &cell.b_n_.value()};
  }

  /// As FusedLstm::Record; `parents` is the cell's parameters after three
  /// slots for the X terms of n and r and for h_{t-1}.
  static RnnState Record(const std::shared_ptr<GruSequence>& seq,
                         int t, FusedGru& fused, const PaddingTable* table,
                         const RnnState& prev,
                         std::vector<ag::Variable>& parents);
  static std::shared_ptr<GruSequence> NewSequence(
      const GraphConvGruCell& cell, SharedBasis basis,
      std::shared_ptr<const CsrMatrix> ops, std::vector<ColumnRange> columns,
      int rows);

  void Reset() {}

  /// As FusedLstm::Step: r and z from ((x + h) + b), then
  /// n = tanh((x_n + U_n *G (r (.) h)) + b_n) and h_t = n + z (.) (h - n).
  void Step(const std::vector<CsrMatrix>& basis, const CsrMatrix& ops,
            ColumnRange columns, int rows, const double* h, double* h_next,
            double* keep) {
    Filter(basis, ops, columns, rows, h);
    ResetGate(rows, h, keep);
    FilterReset(basis, rows);
    Output(rows, h, h_next, keep);
  }

  /// The filtered X terms of every gate and h terms of r and z for rows
  /// [0, rows); T_k h_{t-1} of those rows stays in ph.
  void Filter(const std::vector<CsrMatrix>& basis, const CsrMatrix& ops,
              ColumnRange columns, int rows, const double* h) {
    const size_t nd = static_cast<size_t>(n) * d;
    xs_.resize(3 * nd);
    hs_.resize(2 * nd);
    hn_.resize(nd);
    z_.resize(nd);
    rh_.resize(nd);
    const FilterKernels& kernels = HostFilterKernels();
    kernels.filter_operators(ops, columns, order, rows, wx_, 3 * d, runs_,
                             xs_.data());
    kernels.filter_rows(basis, rows, h, d, wh_, 2 * d, hs_.data(), ph);
  }

  /// r, z and r (.) h. r (.) h is needed on every row T_k may read, so rows
  /// past `rows` use the reset gate of an unreached row.
  void ResetGate(int rows, const double* h, double* keep) {
    HostFilterKernels().gru_reset_gate(Operands(), rows, h, keep);
    const size_t nd = static_cast<size_t>(n) * d;
    for (size_t e = static_cast<size_t>(rows) * d; e < nd; ++e)
      rh_[e] = r_pad_[e % d] * h[e];
  }

  /// U_n *G (r (.) h) for rows [0, rows); T_k (r (.) h) of those rows
  /// stays in prh.
  void FilterReset(const std::vector<CsrMatrix>& basis, int rows) {
    HostFilterKernels().filter_rows(basis, rows, rh_.data(), d, wn_, d,
                                    hn_.data(), prh);
  }

  /// The candidate n and h_t for rows [0, rows).
  void Output(int rows, const double* h, double* h_next, double* keep) {
    HostFilterKernels().gru_output(Operands(), rows, h, h_next, keep);
  }

  const int n, d, order;
  // T_k h_{t-1} and T_k (r (.) h_{t-1}) of the last step, one block per k.
  std::vector<double> ph, prh;

 private:
  const std::vector<double> wx_, wh_, wn_;
  const double *b_r_, *b_z_, *b_n_;
  std::vector<double> r_pad_;
  std::vector<double> xs_, hs_, hn_, z_, rh_;
  std::vector<std::pair<int, int>> runs_;

  GruGates Operands() {
    return {n,    d,    xs_.data(), hs_.data(), hn_.data(), b_r_,
            b_z_, b_n_, z_.data(),  rh_.data()};
  }
};

namespace {

/// Every row's h_t, c_t (LSTM) and kept activations for steps 0..depth-1
/// from the zero state, with a basis and snapshot operators that have no
/// entries: the trajectory of a row no T_k reaches.
template <typename Fused>
std::vector<PaddingTable::Step> ZeroInputTrajectory(Fused& fused, int depth) {
  const std::vector<CsrMatrix> no_graph(
      fused.order, CsrRowBuilder(fused.n, fused.n, 0).Build());
  const CsrMatrix no_ops =
      CsrRowBuilder(fused.order * fused.n, fused.n, 0).Build();
  std::vector<PaddingTable::Step> steps(depth);
  fused.Reset();
  const Tensor h0(fused.n, fused.d);
  for (int t = 0; t < depth; ++t) {
    PaddingTable::Step& step = steps[t];
    step.h = Tensor(fused.n, fused.d);
    step.kept.resize(static_cast<size_t>(Fused::kNumKept) * fused.n *
                     fused.d);
    fused.Step(no_graph, no_ops, {0, fused.n}, fused.n,
               t == 0 ? h0.data() : steps[t - 1].h.data(), step.h.data(),
               step.kept.data());
    if constexpr (Fused::kHasCell) step.c = fused.c;
  }
  return steps;
}

/// The cell's padding table, at least `depth` steps deep, for the current
/// values of its row-local parameters.
template <typename Fused>
std::shared_ptr<const PaddingTable> Padding(
    Fused& fused, PaddingTableCache& padding,
    const std::vector<const Tensor*>& row_local, int depth) {
  return padding.Get(row_local, depth, [&](int deepest) {
    return ZeroInputTrajectory(fused, deepest);
  });
}

/// The fused recurrence over a snapshot sequence: rows the basis reaches
/// run the kernel, the rest are copied from the cell's padding table.
template <typename Fused>
std::vector<Tensor> RunFused(
    Fused& fused, const char* span, PaddingTableCache& padding,
    const std::vector<const Tensor*>& row_local,
    const std::vector<CsrMatrix>& basis, const CsrMatrix& snapshot_ops,
    const std::vector<ColumnRange>& columns) {
  CheckBasis(basis, fused.order, fused.n);
  for (const ColumnRange& c : columns)
    CheckSnapshotOperators(snapshot_ops, c, fused.order, fused.n);
  const int depth = static_cast<int>(columns.size());
  const std::shared_ptr<const PaddingTable> table =
      Padding(fused, padding, row_local, depth);
  const int reached = ReachedRows(basis);
  fused.Reset();
  std::vector<Tensor> h;
  h.reserve(depth);
  const Tensor h0(fused.n, fused.d);
  for (int t = 0; t < depth; ++t) {
    CASCN_TRACE_SPAN(span);
    Tensor next(fused.n, fused.d);
    fused.Step(basis, snapshot_ops, columns[t], reached,
               t == 0 ? h0.data() : h[t - 1].data(), next.data(), nullptr);
    CopyRowsFrom(reached, fused.n, fused.d, 1, table->steps[t].h.data(),
                 next.data());
    h.push_back(std::move(next));
  }
  return h;
}

// ---- Recorded sequences -----------------------------------------------------
//
// The backward of a recorded step is the per-gate tape's arithmetic: every
// buffer gets the contributions that tape gave it, each computed element by
// element as the tape op's loop computed it, from zero, and added in the
// order Backward() ran that tape's nodes (see DESIGN.md, "The recorded
// step"). What is shared is the work: a step forms every gate's
// pre-activation gradient first, side by side in one buffer, and then makes
// each filter product once per Chebyshev order for all gates, 4d wide. A
// node gradient the tape built from one contribution is written 0.0 + x, as
// AccumGrad's zero-filled buffer made it.

/// t, reshaped to rows x cols when it is not: a sequence's backward reuses
/// its scratch for every step, and AccumulateGrad copies or adds a
/// contribution before the next one is written.
Tensor& Shaped(Tensor& t, int rows, int cols) {
  if (t.rows() != rows || t.cols() != cols) t = Tensor(rows, cols);
  return t;
}

/// The most gates a packed product serves.
constexpr int kMaxGates = 4;

/// Block j (rows x d) of `wide` (rows x width) into `out`.
Tensor& Column(const double* wide, int rows, int width, int j, int d,
               Tensor& out) {
  double* dst = Shaped(out, rows, d).data();
  for (int r = 0; r < rows; ++r) {
    const double* src = wide + static_cast<size_t>(r) * width + j * d;
    std::copy(src, src + d, dst + static_cast<size_t>(r) * d);
  }
  return out;
}

/// The filters W_0..W_{K-1} of a cell's ChebConv (built without a bias).
std::vector<ag::Variable> Filters(const ChebConv& conv) {
  std::vector<ag::Variable> w = conv.Parameters();
  CASCN_CHECK(static_cast<int>(w.size()) == conv.order());
  return w;
}

/// A bias's gradient into `g`: the column sums of a (n x d, rows `stride`
/// apart), Tensor::ColSums.
void AddBiasGrad(Tensor& g, const ag::Variable& b, const double* a,
                 int stride, int n, int d) {
  double* out = Shaped(g, 1, d).data();
  std::fill(out, out + d, 0.0);
  for (int r = 0; r < n; ++r)
    for (int j = 0; j < d; ++j)
      out[j] += a[static_cast<size_t>(r) * stride + j];
  ag::AccumulateGrad(b, g);
}

/// A peephole term v (.) c through `g`, for a (n x d, rows `stride`
/// apart): v's gradient a (.) c, then, when the state takes one, the
/// state's a (.) v.
void AddPeepholeGrads(Tensor& g, const ag::Variable& v,
                      const ag::Variable& state, const double* a, int stride,
                      int n, int d) {
  double* out = Shaped(g, n, d).data();
  auto product = [&](const double* x) {
    for (int r = 0; r < n; ++r)
      for (int j = 0; j < d; ++j) {
        const size_t e = static_cast<size_t>(r) * d + j;
        out[e] = a[static_cast<size_t>(r) * stride + j] * x[e];
      }
  };
  product(state.value().data());
  ag::AccumulateGrad(v, g);
  if (!state.needs_grad()) return;
  product(v.value().data());
  ag::AccumulateGrad(state, g);
}

/// An n x d Tensor holding block `index` of `kept`.
Tensor KeptBlock(const double* kept, int index, int n, int d) {
  Tensor t(n, d);
  const size_t nd = static_cast<size_t>(n) * d;
  std::copy(kept + index * nd, kept + (index + 1) * nd, t.data());
  return t;
}

/// Estimated FLOPs of a step's filter products: every input width times
/// every output width it feeds, over n rows and K orders.
uint64_t FilterFlops(int n, int order, uint64_t in_times_out) {
  return 2 * static_cast<uint64_t>(n) * static_cast<uint64_t>(order) *
         in_times_out;
}

/// The cell's parameters after `slots` empty slots for a node's other
/// parents.
std::vector<ag::Variable> ParentsAfter(const Module& cell, int slots) {
  std::vector<ag::Variable> parents = cell.Parameters();
  parents.insert(parents.begin(), slots, ag::Variable());
  return parents;
}

}  // namespace

/// What a recorded sequence keeps, shared by the nodes of all its steps:
/// the basis and operators, every step's kept activations and propagated
/// signals, and the backward's scratch. It holds no graph node but
/// parameter leaves, so the nodes that hold it form no cycle.
struct Sequence {
  /// A sequence whose step t reads the operators `ops_in` in columns[t]
  /// and computes rows [0, rows): `kept` blocks of n x d per step and
  /// `signals` propagated signals of K blocks of rows x d.
  Sequence(int n_in, int d_in, SharedBasis basis_in,
           std::shared_ptr<const CsrMatrix> ops_in,
           std::vector<ColumnRange> columns_in, int rows_in, int kept,
           int signals)
      : n(n_in),
        d(d_in),
        order(static_cast<int>(basis_in->size())),
        rows(rows_in),
        basis(std::move(basis_in)),
        ops(std::move(ops_in)),
        columns(std::move(columns_in)),
        kept_blocks_(kept),
        signals_(signals),
        kept_(columns.size() * kept * n * d),
        propagated_(columns.size() * signals * order * rows * d) {
    for (const ColumnRange& c : columns)
      CheckSnapshotOperators(*ops, c, order, n);
  }

  double* Kept(int t, int block) {
    return kept_.data() +
           (static_cast<size_t>(t) * kept_blocks_ + block) * n * d;
  }

  /// Propagated signal `signal` of step t: K blocks of rows x d.
  double* Propagated(int t, int signal) {
    const size_t per_signal = static_cast<size_t>(order) * rows * d;
    return propagated_.data() +
           (static_cast<size_t>(t) * signals_ + signal) * per_signal;
  }

  /// The X-side backward of `count` gates at step t, their pre-activation
  /// gradients side by side in `a` (rows `stride` apart): gate j's term is
  /// sum_k P_k W_{j,k}, with W_{j,k} = w[j][k]. For k = K-1..0, each
  /// W_{j,k} takes P_k^T a_j, as the tape's MatMuls ran, from one pass over
  /// P_k's entries.
  void InputFilterGrads(int t, const std::vector<ag::Variable>* w,
                        const double* a, int stride, int count) {
    const FilterKernels& kernels = HostFilterKernels();
    const int width = count * d;
    for (int k = order - 1; k >= 0; --k) {
      if (count == 1) {
        kernels.scatter_transpose(*ops, k * n, n, columns[t], a, stride, d,
                                  Shaped(x_filter_, n, d).data());
        ag::AccumulateGrad(w[0][k], x_filter_);
        continue;
      }
      wide_.resize(static_cast<size_t>(n) * width);
      kernels.scatter_transpose(*ops, k * n, n, columns[t], a, stride, width,
                                wide_.data());
      for (int j = 0; j < count; ++j)
        ag::AccumulateGrad(w[j][k],
                           Column(wide_.data(), n, width, j, d, x_filter_));
    }
  }

  /// The h-side backward of `count` gates at step t that filter one signal
  /// s, their pre-activation gradients side by side in `a` (rows `stride`
  /// apart): gate j's term is sum_k (T_k s) W_{j,k}, with W_{j,k} =
  /// w[j][k], and `ps` holds T_k s for rows < rows. For k = K-1..0, each
  /// W_{j,k} takes (T_k s)^T a_j. With `to_signal`,
  /// T_k^T [a_0 W_{0,k}^T | ...] (n x count d) goes to block k of it, given
  /// every W_{j,k}^T (d x d) at block j K + k of `wt`. T_k has no entries
  /// from row `rows` on, so a_j W^T is only needed above it.
  void HiddenFilterGrads(const double* ps, const std::vector<ag::Variable>* w,
                         const double* wt, const double* a, int stride,
                         int count, double* to_signal) {
    const FilterKernels& kernels = HostFilterKernels();
    const double* wt_k[kMaxGates];
    const int width = count * d;
    const size_t block = static_cast<size_t>(rows) * d;
    const size_t dd = static_cast<size_t>(d) * d;
    wide_.resize(static_cast<size_t>(std::max(rows, d)) * width);
    for (int k = order - 1; k >= 0; --k) {
      kernels.products_transpose_a(ps + k * block, rows, d, a, stride, width,
                                   wide_.data());
      for (int j = 0; j < count; ++j)
        ag::AccumulateGrad(w[j][k],
                           Column(wide_.data(), d, width, j, d, filter_));
      if (to_signal == nullptr) continue;
      for (int j = 0; j < count; ++j) wt_k[j] = wt + (j * order + k) * dd;
      kernels.products_transpose_b(a, rows, stride, count, d, wt_k,
                                   wide_.data());
      kernels.scatter_transpose(
          (*basis)[k], 0, rows, {0, n}, wide_.data(), width, width,
          to_signal + static_cast<size_t>(k) * n * width);
    }
  }

  /// W^T of each filter in `w` (count gates, K orders, d x d each) at
  /// block j K + k, built at the sequence's first backward from the
  /// filters' values then, which is when the tape read them.
  const double* Transposed(const std::vector<ag::Variable>* w, int count) {
    if (!transposed_.empty()) return transposed_.data();
    const size_t dd = static_cast<size_t>(d) * d;
    transposed_.resize(count * order * dd);
    for (int j = 0; j < count; ++j)
      for (int k = 0; k < order; ++k) {
        const double* src = w[j][k].value().data();
        double* dst = transposed_.data() + (j * order + k) * dd;
        for (int p = 0; p < d; ++p)
          for (int i = 0; i < d; ++i) dst[p * d + i] = src[i * d + p];
      }
    return transposed_.data();
  }

  const int n, d, order, rows;
  const SharedBasis basis;                    // T_k
  const std::shared_ptr<const CsrMatrix> ops;  // every step's P_k
  const std::vector<ColumnRange> columns;      // step t's columns of ops
  // Backward scratch: a signal's contributions before they are handed
  // over, and one bias's or state's gradient.
  std::vector<double> to_signal;
  std::vector<const double*> handover;
  Tensor bias, rows_grad;

 private:
  const int kept_blocks_, signals_;
  std::vector<double> kept_, propagated_, transposed_, wide_;
  // One filter's gradient before it is handed over: h side d x d, X side
  // n x d.
  Tensor filter_, x_filter_;
};

/// A recorded LSTM sequence. Its gates are in the order the tape handed
/// h_{t-1} their contributions.
struct LstmSequence : Sequence {
  using Sequence::Sequence;
  enum Gate { kGateC, kGateI, kGateF, kGateO };

  /// The h_t node's backward: h_t = o (.) tanh(c_t) and the output gate's
  /// peephole, as the tape ran them.
  void BackwardH(int t, const Tensor& dh, const ag::Variable& c_node,
                 const ag::Variable& x_out_gate) {
    const size_t nd = static_cast<size_t>(n) * d;
    const double* o = Kept(t, FusedLstm::kO);
    const double* tanh_c = Kept(t, FusedLstm::kTanhC);
    Tensor& a_o = d_out_gate[t] = Tensor(n, d);
    Tensor& dc = Shaped(rows_grad, n, d);
    for (size_t e = 0; e < nd; ++e) {
      const double o_grad = 0.0 + dh.data()[e] * tanh_c[e];
      const double tanh_c_grad = 0.0 + dh.data()[e] * o[e];
      dc.data()[e] = tanh_c_grad * (1.0 - tanh_c[e] * tanh_c[e]);
      a_o.data()[e] = 0.0 + (o_grad * o[e]) * (1.0 - o[e]);
    }
    ag::AccumulateGrad(c_node, dc);
    AddPeepholeGrads(rows_grad, v_o, c_node, a_o.data(), d, n, d);
    ag::AccumulateGrad(x_out_gate, a_o);
  }

  /// The c_t node's backward: c_t = f (.) c_{t-1} + i (.) g through the
  /// candidate, input and forget gates, and the output gate's bias and
  /// h-side filters once the h_t node has run. Their pre-activation
  /// gradients sit side by side in Gate order.
  void BackwardC(int t, const Tensor& dc, const ag::Variable& h_prev,
                 const ag::Variable& c_prev) {
    const int count = d_out_gate[t].empty() ? 3 : 4;
    const int stride = 4 * d;
    const double* i = Kept(t, FusedLstm::kI);
    const double* f = Kept(t, FusedLstm::kF);
    const double* g = Kept(t, FusedLstm::kG);
    const double* o_grad = d_out_gate[t].data();
    const double* c_prev_value = c_prev.value().data();
    grads.resize(static_cast<size_t>(n) * stride);
    for (int r = 0; r < n; ++r) {
      double* a = grads.data() + static_cast<size_t>(r) * stride;
      for (int j = 0; j < d; ++j) {
        const size_t e = static_cast<size_t>(r) * d + j;
        const double dce = dc.data()[e];
        const double i_grad = 0.0 + dce * g[e];
        const double g_grad = 0.0 + dce * i[e];
        const double f_grad = 0.0 + dce * c_prev_value[e];
        a[j] = 0.0 + g_grad * (1.0 - g[e] * g[e]);
        a[d + j] = 0.0 + (i_grad * i[e]) * (1.0 - i[e]);
        a[2 * d + j] = 0.0 + (f_grad * f[e]) * (1.0 - f[e]);
        if (count == 4) a[3 * d + j] = o_grad[e];
      }
    }
    const double* a = grads.data();
    for (int j = 0; j < count; ++j)
      AddBiasGrad(bias, b[j], a + j * d, stride, n, d);
    const bool h_needs_grad = h_prev.needs_grad();
    const int width = count * d;
    if (h_needs_grad) to_signal.resize(static_cast<size_t>(order) * n * width);
    HiddenFilterGrads(Propagated(t, 0), wh, Transposed(wh, 4), a, stride,
                      count, h_needs_grad ? to_signal.data() : nullptr);
    InputFilterGrads(t, wx, a, stride, 3);
    AddPeepholeGrads(rows_grad, v_i, c_prev, a + d, stride, n, d);
    if (c_prev.needs_grad()) {
      const size_t nd = static_cast<size_t>(n) * d;
      double* to_c = Shaped(rows_grad, n, d).data();
      for (size_t e = 0; e < nd; ++e) to_c[e] = dc.data()[e] * f[e];
      ag::AccumulateGrad(c_prev, rows_grad);
    }
    AddPeepholeGrads(rows_grad, v_f, c_prev, a + 2 * d, stride, n, d);
    if (!h_needs_grad) return;
    // Gate by gate, each for k = K-1..0, as the tape handed them over.
    handover.clear();
    for (int j = 0; j < count; ++j)
      for (int k = order - 1; k >= 0; --k)
        handover.push_back(to_signal.data() +
                           static_cast<size_t>(k) * n * width + j * d);
    ag::AccumulateGrads(h_prev, handover.data(), handover.size(), width);
  }

  std::vector<ag::Variable> wx[4], wh[4];  // per gate, W_0..W_{K-1}
  ag::Variable v_i, v_f, v_o, b[4];
  // dL/d(output-gate preactivation) per step, handed from the h_t node to
  // the c_t node, which runs the rest of that gate's backward.
  std::vector<Tensor> d_out_gate;
  std::vector<double> grads;  // the gates' pre-activation gradients, n x 4d
};

RnnState FusedLstm::Record(const std::shared_ptr<LstmSequence>& seq, int t,
                           FusedLstm& fused, const PaddingTable* table,
                           const RnnState& prev,
                           std::vector<ag::Variable>& parents) {
  const int n = seq->n, d = seq->d, rows = seq->rows;
  double* keep = seq->Kept(t, 0);
  Tensor h(n, d);
  {
    CASCN_TRACE_SPAN("cheb_conv");
    fused.Filter(*seq->basis, *seq->ops, seq->columns[t], rows,
                 prev.h.value().data());
  }
  fused.Gates(rows, h.data(), keep);
  std::copy(fused.ph.begin(), fused.ph.end(), seq->Propagated(t, 0));
  if (table != nullptr) {
    const PaddingTable::Step& pad = table->steps[t];
    CopyRowsFrom(rows, n, d, 1, pad.h.data(), h.data());
    CopyRowsFrom(rows, n, d, 1, pad.c.data(), fused.c.data());
    CopyRowsFrom(rows, n, d, kNumKept, pad.kept.data(), keep);
  }

  // The output gate's X term is its own node, listed first among h_t's
  // parents: the tape's graph search reached that term before h_{t-1}, so
  // when the search first reaches h_{t-1} through this step, these filters
  // take their gradients after every earlier step's, as the tape's did.
  const ag::Variable x_out_gate = ag::RecordOp(
      KeptBlock(keep, kXo, n, d), seq->wx[LstmSequence::kGateO],
      [seq, t](const Tensor& g) {
        seq->InputFilterGrads(t, &seq->wx[LstmSequence::kGateO], g.data(),
                              seq->d, 1);
      },
      0);
  // Parameters are leaves, so where they sit among a node's parents does
  // not move any node in the graph search.
  parents[0] = prev.h;
  parents[1] = prev.c;
  RnnState next;
  next.c = ag::RecordOp(
      fused.c, parents,
      [seq, t, h_prev = prev.h, c_prev = prev.c](const Tensor& dc) {
        seq->BackwardC(t, dc, h_prev, c_prev);
      },
      0);
  next.h = ag::RecordOp(
      std::move(h), {x_out_gate, prev.h, next.c, seq->v_o},
      [seq, t, c_node = next.c, x_out_gate](const Tensor& dh) {
        seq->BackwardH(t, dh, c_node, x_out_gate);
      },
      FilterFlops(n, seq->order, static_cast<uint64_t>(n + d) * 4 * d));
  return next;
}

/// A recorded GRU sequence.
struct GruSequence : Sequence {
  using Sequence::Sequence;
  enum Gate { kGateR, kGateZ, kGateN };

  /// The h_t node's backward: h_t = n + z (.) (h_{t-1} - n) through the
  /// update gate, the candidate (with U_n over r (.) h_{t-1}) and the reset
  /// gate, as the tape ran them. The X terms of r and n are their own
  /// nodes and take their gradients last. r's gradient needs U_n's, so the
  /// gates' products run one gate at a time.
  void BackwardH(int t, const Tensor& dh, const ag::Variable& h_prev,
                 const ag::Variable& x_reset,
                 const ag::Variable& x_candidate) {
    const size_t nd = static_cast<size_t>(n) * d;
    const double* r = Kept(t, FusedGru::kR);
    const double* z = Kept(t, FusedGru::kZ);
    const double* cand = Kept(t, FusedGru::kN);
    const double* h = h_prev.value().data();
    const bool h_needs_grad = h_prev.needs_grad();
    // h_{t-1}'s contributions in the tape's order, n x d each: h_{t-1} - n,
    // z for k = K-1..0, r (.) h_{t-1}, r for k = K-1..0; then what r (.) h
    // takes, for k = K-1..0.
    to_signal.resize((3 * order + 2) * nd);
    double* diff_grad = to_signal.data();
    double* from_z = diff_grad + nd;
    double* rh_part = from_z + order * nd;
    double* from_r = rh_part + nd;
    double* from_n = from_r + order * nd;
    Shaped(a_z, n, d);
    Shaped(a_n, n, d);
    for (size_t e = 0; e < nd; ++e) {
      const double zd_grad = 0.0 + dh.data()[e];
      const double z_grad = 0.0 + zd_grad * (h[e] - cand[e]);
      diff_grad[e] = 0.0 + zd_grad * z[e];
      const double n_grad = (0.0 + dh.data()[e]) + diff_grad[e] * -1.0;
      a_z.data()[e] = 0.0 + (z_grad * z[e]) * (1.0 - z[e]);
      a_n.data()[e] = 0.0 + n_grad * (1.0 - cand[e] * cand[e]);
    }
    const double* transposed = Transposed(wh, 3);
    auto gate_grads = [&](int g, const double* ps, const double* a,
                          double* to) {
      AddBiasGrad(bias, b[g], a, d, n, d);
      HiddenFilterGrads(ps, &wh[g],
                        transposed + static_cast<size_t>(g) * order * d * d,
                        a, d, 1, to);
    };
    gate_grads(kGateZ, Propagated(t, 0), a_z.data(),
               h_needs_grad ? from_z : nullptr);
    InputFilterGrads(t, &wx[kGateZ], a_z.data(), d, 1);

    gate_grads(kGateN, Propagated(t, 1), a_n.data(), from_n);
    Shaped(rh_grad, n, d);
    rh_grad.Zero();
    for (int k = order - 1; k >= 0; --k)
      for (size_t e = 0; e < nd; ++e) rh_grad.data()[e] += from_n[k * nd + e];
    Shaped(a_r, n, d);
    for (size_t e = 0; e < nd; ++e) {
      const double r_grad = 0.0 + rh_grad.data()[e] * h[e];
      a_r.data()[e] = 0.0 + (r_grad * r[e]) * (1.0 - r[e]);
      rh_part[e] = rh_grad.data()[e] * r[e];
    }
    gate_grads(kGateR, Propagated(t, 0), a_r.data(),
               h_needs_grad ? from_r : nullptr);
    if (h_needs_grad) {
      handover.assign({diff_grad});
      for (int k = order - 1; k >= 0; --k) handover.push_back(from_z + k * nd);
      handover.push_back(rh_part);
      for (int k = order - 1; k >= 0; --k) handover.push_back(from_r + k * nd);
      ag::AccumulateGrads(h_prev, handover.data(), handover.size(), d);
    }
    ag::AccumulateGrad(x_reset, a_r);
    ag::AccumulateGrad(x_candidate, a_n);
  }

  std::vector<ag::Variable> wx[3], wh[3];  // per gate, W_0..W_{K-1}
  ag::Variable b[3];
  // The pre-activation gradients of z, n and r, and r (.) h_{t-1}'s.
  Tensor a_z, a_n, a_r, rh_grad;
};

RnnState FusedGru::Record(const std::shared_ptr<GruSequence>& seq, int t,
                          FusedGru& fused, const PaddingTable* table,
                          const RnnState& prev,
                          std::vector<ag::Variable>& parents) {
  const int n = seq->n, d = seq->d, rows = seq->rows;
  const double* h_prev = prev.h.value().data();
  double* keep = seq->Kept(t, 0);
  {
    CASCN_TRACE_SPAN("cheb_conv");
    fused.Filter(*seq->basis, *seq->ops, seq->columns[t], rows, h_prev);
  }
  fused.ResetGate(rows, h_prev, keep);
  {
    CASCN_TRACE_SPAN("cheb_conv");
    fused.FilterReset(*seq->basis, rows);
  }
  Tensor h(n, d);
  fused.Output(rows, h_prev, h.data(), keep);
  std::copy(fused.ph.begin(), fused.ph.end(), seq->Propagated(t, 0));
  std::copy(fused.prh.begin(), fused.prh.end(), seq->Propagated(t, 1));
  if (table != nullptr) {
    const PaddingTable::Step& pad = table->steps[t];
    CopyRowsFrom(rows, n, d, 1, pad.h.data(), h.data());
    CopyRowsFrom(rows, n, d, kNumKept, pad.kept.data(), keep);
  }

  // The X terms of n and r are their own nodes, listed first among h_t's
  // parents in the order the tape's graph search reached them.
  auto x_term = [&](int gate, int block) {
    return ag::RecordOp(
        KeptBlock(keep, block, n, d), seq->wx[gate],
        [seq, t, gate](const Tensor& g) {
          seq->InputFilterGrads(t, &seq->wx[gate], g.data(), seq->d, 1);
        },
        0);
  };
  const ag::Variable x_candidate = x_term(GruSequence::kGateN, kXn);
  const ag::Variable x_reset = x_term(GruSequence::kGateR, kXr);
  parents[0] = x_candidate;
  parents[1] = x_reset;
  parents[2] = prev.h;
  RnnState next;
  next.h = ag::RecordOp(
      std::move(h), parents,
      [seq, t, h_prev = prev.h, x_reset, x_candidate](const Tensor& dh) {
        seq->BackwardH(t, dh, h_prev, x_reset, x_candidate);
      },
      FilterFlops(n, seq->order,
                  static_cast<uint64_t>(n) * 3 * d +
                      static_cast<uint64_t>(d) * 3 * d));
  return next;
}

namespace {

/// `state` is an n x d h, with an n x d c when the cell has one.
void CheckState(const RnnState& state, int n, int d, bool has_cell) {
  CASCN_CHECK(state.h.rows() == n && state.h.cols() == d &&
              (!has_cell || state.c.value().SameShape(state.h.value())))
      << "state must be n x hidden";
}

/// The first row the kernel can leave to the padding table, for a run from
/// `initial`: one past the rows the basis reaches when `initial` is +0.0
/// from there on, as the table's trajectory starts; n otherwise.
int PaddedFrom(const std::vector<CsrMatrix>& basis, const RnnState& initial) {
  const int n = initial.h.rows();
  const int rows = ReachedRows(basis);
  for (const ag::Variable* v : {&initial.h, &initial.c}) {
    if (!v->defined()) continue;
    const Tensor& t = v->value();
    for (int e = rows * t.cols(); e < t.size(); ++e)
      if (t.data()[e] != 0.0 || std::signbit(t.data()[e])) return n;
  }
  return rows;
}

}  // namespace

std::shared_ptr<LstmSequence> FusedLstm::NewSequence(
    const GraphConvLstmCell& cell, SharedBasis basis,
    std::shared_ptr<const CsrMatrix> ops, std::vector<ColumnRange> columns,
    int rows) {
  auto seq = std::make_shared<LstmSequence>(
      cell.num_nodes_, cell.hidden_dim_, std::move(basis), std::move(ops),
      std::move(columns), rows, kNumKept, 1);
  const ChebConv* convs_x[] = {cell.conv_x_c_.get(), cell.conv_x_i_.get(),
                               cell.conv_x_f_.get(), cell.conv_x_o_.get()};
  const ChebConv* convs_h[] = {cell.conv_h_c_.get(), cell.conv_h_i_.get(),
                               cell.conv_h_f_.get(), cell.conv_h_o_.get()};
  const ag::Variable biases[] = {cell.b_c_, cell.b_i_, cell.b_f_, cell.b_o_};
  for (int gate = 0; gate < 4; ++gate) {
    seq->wx[gate] = Filters(*convs_x[gate]);
    seq->wh[gate] = Filters(*convs_h[gate]);
    seq->b[gate] = biases[gate];
  }
  seq->v_i = cell.v_i_;
  seq->v_f = cell.v_f_;
  seq->v_o = cell.v_o_;
  seq->d_out_gate.resize(seq->columns.size());
  return seq;
}

std::shared_ptr<GruSequence> FusedGru::NewSequence(
    const GraphConvGruCell& cell, SharedBasis basis,
    std::shared_ptr<const CsrMatrix> ops, std::vector<ColumnRange> columns,
    int rows) {
  auto seq = std::make_shared<GruSequence>(
      cell.num_nodes_, cell.hidden_dim_, std::move(basis), std::move(ops),
      std::move(columns), rows, kNumKept, 2);
  const ChebConv* convs_x[] = {cell.conv_x_r_.get(), cell.conv_x_z_.get(),
                               cell.conv_x_n_.get()};
  const ChebConv* convs_h[] = {cell.conv_h_r_.get(), cell.conv_h_z_.get(),
                               cell.conv_h_n_.get()};
  const ag::Variable biases[] = {cell.b_r_, cell.b_z_, cell.b_n_};
  for (int gate = 0; gate < 3; ++gate) {
    seq->wx[gate] = Filters(*convs_x[gate]);
    seq->wh[gate] = Filters(*convs_h[gate]);
    seq->b[gate] = biases[gate];
  }
  return seq;
}

namespace {

/// Records one step from `initial` per entry of `columns`, step t over the
/// operators `ops` in columns[t]. With `every_row`, or when `initial` is
/// not +0.0 on the rows no T_k reaches, every row runs the kernel;
/// otherwise those rows come from the cell's padding table.
template <typename Fused, typename Cell>
std::vector<RnnState> RecordSteps(const Cell& cell, PaddingTableCache& padding,
                                  SharedBasis basis,
                                  std::shared_ptr<const CsrMatrix> ops,
                                  std::vector<ColumnRange> columns,
                                  const RnnState& initial, bool every_row,
                                  const char* span) {
  Fused fused(cell);
  const int depth = static_cast<int>(columns.size());
  const int rows = every_row ? fused.n : PaddedFrom(*basis, initial);
  std::shared_ptr<const PaddingTable> table;
  if (rows < fused.n)
    table = Padding(fused, padding, Fused::RowLocal(cell), depth);
  if constexpr (Fused::kHasCell) fused.c = initial.c.value();
  const auto seq = Fused::NewSequence(cell, std::move(basis), std::move(ops),
                                      std::move(columns), rows);
  std::vector<ag::Variable> parents = ParentsAfter(cell, Fused::kParentSlots);
  std::vector<RnnState> states;
  states.reserve(depth);
  RnnState state = initial;
  for (int t = 0; t < depth; ++t) {
    CASCN_TRACE_SPAN(span);
    state = Fused::Record(seq, t, fused, table.get(), state, parents);
    states.push_back(state);
  }
  return states;
}

}  // namespace

}  // namespace internal

GraphConvLstmCell::GraphConvLstmCell(int num_nodes, int hidden_dim,
                                     int cheb_order, Rng& rng)
    : num_nodes_(num_nodes), hidden_dim_(hidden_dim) {
  auto conv_x = [&] {
    return std::make_unique<ChebConv>(num_nodes, hidden_dim, cheb_order, rng,
                                      /*with_bias=*/false);
  };
  auto conv_h = [&] {
    return std::make_unique<ChebConv>(hidden_dim, hidden_dim, cheb_order, rng,
                                      /*with_bias=*/false);
  };
  conv_x_i_ = conv_x();
  conv_x_f_ = conv_x();
  conv_x_o_ = conv_x();
  conv_x_c_ = conv_x();
  conv_h_i_ = conv_h();
  conv_h_f_ = conv_h();
  conv_h_o_ = conv_h();
  conv_h_c_ = conv_h();
  RegisterSubmodule("conv_x_i", conv_x_i_.get());
  RegisterSubmodule("conv_x_f", conv_x_f_.get());
  RegisterSubmodule("conv_x_o", conv_x_o_.get());
  RegisterSubmodule("conv_x_c", conv_x_c_.get());
  RegisterSubmodule("conv_h_i", conv_h_i_.get());
  RegisterSubmodule("conv_h_f", conv_h_f_.get());
  RegisterSubmodule("conv_h_o", conv_h_o_.get());
  RegisterSubmodule("conv_h_c", conv_h_c_.get());
  // Peepholes start at zero so early training matches a peephole-free LSTM.
  v_i_ = RegisterParameter("v_i", Tensor(num_nodes, hidden_dim));
  v_f_ = RegisterParameter("v_f", Tensor(num_nodes, hidden_dim));
  v_o_ = RegisterParameter("v_o", Tensor(num_nodes, hidden_dim));
  b_i_ = RegisterParameter("b_i", Tensor(1, hidden_dim));
  b_f_ = RegisterParameter("b_f", Tensor(1, hidden_dim, 1.0));
  b_o_ = RegisterParameter("b_o", Tensor(1, hidden_dim));
  b_c_ = RegisterParameter("b_c", Tensor(1, hidden_dim));
}

RnnState GraphConvLstmCell::InitialState() const {
  RnnState s;
  s.h = ag::Variable::Leaf(Tensor(num_nodes_, hidden_dim_));
  s.c = ag::Variable::Leaf(Tensor(num_nodes_, hidden_dim_));
  return s;
}

RnnState GraphConvLstmCell::Step(SharedBasis cheb_basis,
                                 SnapshotOperators snapshot_ops,
                                 const RnnState& prev) const {
  internal::CheckBasis(*cheb_basis, cheb_order(), num_nodes_);
  internal::CheckSnapshotOperators(*snapshot_ops.blocks, snapshot_ops.columns,
                                   cheb_order(), num_nodes_);
  internal::CheckState(prev, num_nodes_, hidden_dim_, true);
  if (ag::GradEnabled()) {
    return internal::RecordSteps<internal::FusedLstm>(
        *this, padding_, std::move(cheb_basis), std::move(snapshot_ops.blocks),
        {snapshot_ops.columns}, prev, /*every_row=*/true,
        "graph_lstm_step")[0];
  }
  CASCN_TRACE_SPAN("graph_lstm_step");
  internal::FusedLstm fused(*this);
  fused.c = prev.c.value();
  Tensor h(num_nodes_, hidden_dim_);
  fused.Step(*cheb_basis, *snapshot_ops.blocks, snapshot_ops.columns,
             num_nodes_, prev.h.value().data(), h.data(), nullptr);
  RnnState next;
  next.h = ag::Variable::Leaf(std::move(h));
  next.c = ag::Variable::Leaf(std::move(fused.c));
  return next;
}

RnnState GraphConvLstmCell::Step(const std::vector<CsrMatrix>& cheb_basis,
                                 const ag::Variable& x,
                                 const RnnState& prev) const {
  return Step(std::make_shared<const std::vector<CsrMatrix>>(cheb_basis),
              internal::SignalOperators(cheb_basis, x, num_nodes_), prev);
}

std::vector<Tensor> GraphConvLstmCell::Run(
    const std::vector<CsrMatrix>& cheb_basis,
    const CsrMatrix& snapshot_ops,
    const std::vector<ColumnRange>& columns) const {
  internal::FusedLstm fused(*this);
  return internal::RunFused(fused, "graph_lstm_step", padding_,
                            internal::FusedLstm::RowLocal(*this), cheb_basis,
                            snapshot_ops, columns);
}

std::vector<RnnState> GraphConvLstmCell::RunRecorded(
    SharedBasis cheb_basis, std::shared_ptr<const CsrMatrix> snapshot_ops,
    std::vector<ColumnRange> columns, const RnnState& initial) const {
  internal::CheckBasis(*cheb_basis, cheb_order(), num_nodes_);
  internal::CheckState(initial, num_nodes_, hidden_dim_, true);
  return internal::RecordSteps<internal::FusedLstm>(
      *this, padding_, std::move(cheb_basis), std::move(snapshot_ops),
      std::move(columns), initial, /*every_row=*/false, "graph_lstm_step");
}

GraphConvGruCell::GraphConvGruCell(int num_nodes, int hidden_dim,
                                   int cheb_order, Rng& rng)
    : num_nodes_(num_nodes), hidden_dim_(hidden_dim) {
  auto conv_x = [&] {
    return std::make_unique<ChebConv>(num_nodes, hidden_dim, cheb_order, rng,
                                      /*with_bias=*/false);
  };
  auto conv_h = [&] {
    return std::make_unique<ChebConv>(hidden_dim, hidden_dim, cheb_order, rng,
                                      /*with_bias=*/false);
  };
  conv_x_r_ = conv_x();
  conv_x_z_ = conv_x();
  conv_x_n_ = conv_x();
  conv_h_r_ = conv_h();
  conv_h_z_ = conv_h();
  conv_h_n_ = conv_h();
  RegisterSubmodule("conv_x_r", conv_x_r_.get());
  RegisterSubmodule("conv_x_z", conv_x_z_.get());
  RegisterSubmodule("conv_x_n", conv_x_n_.get());
  RegisterSubmodule("conv_h_r", conv_h_r_.get());
  RegisterSubmodule("conv_h_z", conv_h_z_.get());
  RegisterSubmodule("conv_h_n", conv_h_n_.get());
  b_r_ = RegisterParameter("b_r", Tensor(1, hidden_dim));
  b_z_ = RegisterParameter("b_z", Tensor(1, hidden_dim));
  b_n_ = RegisterParameter("b_n", Tensor(1, hidden_dim));
}

RnnState GraphConvGruCell::InitialState() const {
  RnnState s;
  s.h = ag::Variable::Leaf(Tensor(num_nodes_, hidden_dim_));
  return s;
}

RnnState GraphConvGruCell::Step(SharedBasis cheb_basis,
                                SnapshotOperators snapshot_ops,
                                const RnnState& prev) const {
  internal::CheckBasis(*cheb_basis, cheb_order(), num_nodes_);
  internal::CheckSnapshotOperators(*snapshot_ops.blocks, snapshot_ops.columns,
                                   cheb_order(), num_nodes_);
  internal::CheckState(prev, num_nodes_, hidden_dim_, false);
  if (ag::GradEnabled()) {
    return internal::RecordSteps<internal::FusedGru>(
        *this, padding_, std::move(cheb_basis), std::move(snapshot_ops.blocks),
        {snapshot_ops.columns}, prev, /*every_row=*/true,
        "graph_gru_step")[0];
  }
  CASCN_TRACE_SPAN("graph_gru_step");
  internal::FusedGru fused(*this);
  Tensor h(num_nodes_, hidden_dim_);
  fused.Step(*cheb_basis, *snapshot_ops.blocks, snapshot_ops.columns,
             num_nodes_, prev.h.value().data(), h.data(), nullptr);
  RnnState next;
  next.h = ag::Variable::Leaf(std::move(h));
  return next;
}

RnnState GraphConvGruCell::Step(const std::vector<CsrMatrix>& cheb_basis,
                                const ag::Variable& x,
                                const RnnState& prev) const {
  return Step(std::make_shared<const std::vector<CsrMatrix>>(cheb_basis),
              internal::SignalOperators(cheb_basis, x, num_nodes_), prev);
}

std::vector<Tensor> GraphConvGruCell::Run(
    const std::vector<CsrMatrix>& cheb_basis,
    const CsrMatrix& snapshot_ops,
    const std::vector<ColumnRange>& columns) const {
  internal::FusedGru fused(*this);
  return internal::RunFused(fused, "graph_gru_step", padding_,
                            internal::FusedGru::RowLocal(*this), cheb_basis,
                            snapshot_ops, columns);
}

std::vector<RnnState> GraphConvGruCell::RunRecorded(
    SharedBasis cheb_basis, std::shared_ptr<const CsrMatrix> snapshot_ops,
    std::vector<ColumnRange> columns, const RnnState& initial) const {
  internal::CheckBasis(*cheb_basis, cheb_order(), num_nodes_);
  internal::CheckState(initial, num_nodes_, hidden_dim_, false);
  return internal::RecordSteps<internal::FusedGru>(
      *this, padding_, std::move(cheb_basis), std::move(snapshot_ops),
      std::move(columns), initial, /*every_row=*/false, "graph_gru_step");
}

}  // namespace cascn::nn

#include "nn/graph_rnn_cells.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>

#include "common/logging.h"
#include "common/math_util.h"
#include "obs/trace.h"

namespace cascn::nn {

namespace internal {

template <typename Build>
std::shared_ptr<const PaddingTable> PaddingTableCache::Get(
    const std::vector<const Tensor*>& params, int depth, Build&& build) {
  std::lock_guard<std::mutex> lock(mutex_);
  int deepest = 0;
  if (table_ != nullptr) {
    deepest = static_cast<int>(table_->h.size());
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
  table->h = build(std::max(depth, deepest));
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

/// out (rows x width) = sum_k term_k, adding the terms in k order
/// (ChebConv::Forward). `product(k, dst)` adds term k into dst, which holds
/// zeros; `term` is the buffer of terms past the first.
template <typename Product>
void SumOverOrders(size_t order, int rows, int width, double* out,
                   std::vector<double>& term, Product&& product) {
  const size_t out_size = static_cast<size_t>(rows) * width;
  std::fill(out, out + out_size, 0.0);
  for (size_t k = 0; k < order; ++k) {
    if (k == 0) {
      product(k, out);
      continue;
    }
    term.assign(out_size, 0.0);
    product(k, term.data());
    for (size_t i = 0; i < out_size; ++i) out[i] += term[i];
  }
}

/// Rows [0, rows) of sum_k (T_k s) W_k into `out` (rows x width), for a
/// signal s (n x in) and W_k block k of `packed`; `propagated` receives
/// T_k s, block k of rows x in. Element by element it is the recorded ops'
/// arithmetic: each row of T_k s gathers its CSR entries in order from
/// zero (CsrMatrix::MatMulDense), each product adds p in ascending order
/// from zero and skips zero entries of T_k s (MatMulAccum), and the terms
/// add in k order.
void FilterRows(const std::vector<CsrMatrix>& basis, int rows,
                const double* s, int in, const std::vector<double>& packed,
                int width, double* out, std::vector<double>& propagated,
                std::vector<double>& term) {
  const size_t block = static_cast<size_t>(rows) * in;
  propagated.assign(basis.size() * block, 0.0);
  SumOverOrders(basis.size(), rows, width, out, term,
                [&](size_t k, double* dst) {
    const auto& offsets = basis[k].row_offsets();
    const auto& cols = basis[k].col_indices();
    const auto& vals = basis[k].values();
    double* pk = propagated.data() + k * block;
    for (int r = 0; r < rows; ++r) {
      double* prow = pk + static_cast<size_t>(r) * in;
      for (int e = offsets[r]; e < offsets[r + 1]; ++e) {
        const double v = vals[e];
        const double* srow = s + static_cast<size_t>(cols[e]) * in;
        for (int j = 0; j < in; ++j) prow[j] += v * srow[j];
      }
    }
    const double* w = packed.data() + k * static_cast<size_t>(in) * width;
    for (int r = 0; r < rows; ++r) {
      const double* prow = pk + static_cast<size_t>(r) * in;
      double* drow = dst + static_cast<size_t>(r) * width;
      for (int p = 0; p < in; ++p) {
        const double a = prow[p];
        if (a == 0.0) continue;
        const double* wrow = w + static_cast<size_t>(p) * width;
        for (int j = 0; j < width; ++j) drow[j] += a * wrow[j];
      }
    }
  });
}

/// Rows [0, rows) of sum_k P_k W_k into `out` (rows x width), for the
/// snapshot operators P_k = T_k X (n x n), block k of the `order` blocks of
/// n rows from row `first` of `ops`, and W_k block k of `packed`. It is
/// FilterRows' product over X: a row of P_k holds, in ascending column
/// order, exactly the nonzeros of that row of T_k X, which are the entries
/// FilterRows' p loop does not skip, with the same values.
void FilterOperators(const CsrMatrix& ops, int first, int order, int rows,
                     const std::vector<double>& packed, int width,
                     double* out, std::vector<double>& term) {
  const int n = ops.cols();
  const auto& offsets = ops.row_offsets();
  const auto& cols = ops.col_indices();
  const auto& vals = ops.values();
  SumOverOrders(order, rows, width, out, term, [&](size_t k, double* dst) {
    const int block = first + static_cast<int>(k) * n;
    const double* w = packed.data() + k * static_cast<size_t>(n) * width;
    for (int r = 0; r < rows; ++r) {
      double* drow = dst + static_cast<size_t>(r) * width;
      for (int e = offsets[block + r]; e < offsets[block + r + 1]; ++e) {
        const double a = vals[e];
        const double* wrow = w + static_cast<size_t>(cols[e]) * width;
        for (int j = 0; j < width; ++j) drow[j] += a * wrow[j];
      }
    }
  });
}

/// `basis` is T_0..T_{K-1} for K = `order`, each n x n.
void CheckBasis(const std::vector<CsrMatrix>& basis, int order, int n) {
  CASCN_CHECK(static_cast<int>(basis.size()) == order)
      << "Chebyshev basis order mismatch: basis has " << basis.size()
      << ", layer expects " << order;
  for (const CsrMatrix& t : basis)
    CASCN_CHECK(t.rows() == n && t.cols() == n) << "T_k must be n x n";
}

/// `ops` has n columns and `order` blocks of n rows from row `first`.
void CheckSnapshotOperators(const CsrMatrix& ops, int first, int order,
                            int n) {
  CASCN_CHECK(ops.cols() == n && first >= 0 &&
              first + order * n <= ops.rows())
      << "snapshot operators must be " << order << " blocks of n x n";
}

/// A dense snapshot signal's operators P_k = T_k x, built as the encoder
/// builds them from a sparse X_t.
SnapshotOperators SignalOperators(const std::vector<CsrMatrix>& basis,
                                  const ag::Variable& x, int n) {
  CASCN_CHECK(x.rows() == n && x.cols() == n)
      << "snapshot signal must be n x n";
  CASCN_CHECK(!x.needs_grad()) << "snapshot signal must need no gradient";
  return {std::make_shared<const CsrMatrix>(
              StackedProducts(basis, {CsrMatrix::FromDense(x.value())})),
          0};
}

}  // namespace

/// The LSTM kernel of one forward: the gate filters packed as
/// [W_i|W_f|W_c|W_o] per k, for X and for h, and the memory cell c.
class FusedLstm {
 public:
  /// What Gates keeps for a recorded step, one n x d block each: the four
  /// gates and tanh(c_t) for the backward, and the output gate's X term.
  enum Kept { kI, kF, kG, kO, kTanhC, kXo, kNumKept };

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

  /// One recorded step (see the header comment).
  static RnnState Record(const GraphConvLstmCell& cell, SharedBasis basis,
                         SnapshotOperators ops, const RnnState& prev);

  void Reset() { c.Zero(); }

  /// Rows [0, rows) of one step over the snapshot operators P_k = T_k X_t
  /// from row `first` of `ops` and h_{t-1} (n x d): writes h_t into h_next
  /// and c_t into c.
  void Step(const std::vector<CsrMatrix>& basis, const CsrMatrix& ops,
            int first, int rows, const double* h, double* h_next) {
    Filter(basis, ops, first, rows, h);
    Gates(rows, h_next, nullptr);
  }

  /// Every gate's filtered X and h terms for rows [0, rows); T_k h_{t-1}
  /// of those rows stays in ph.
  void Filter(const std::vector<CsrMatrix>& basis, const CsrMatrix& ops,
              int first, int rows, const double* h) {
    const int width = 4 * d;
    xs_.resize(static_cast<size_t>(n) * width);
    hs_.resize(static_cast<size_t>(n) * width);
    FilterOperators(ops, first, order, rows, wx_, width, xs_.data(), term_);
    FilterRows(basis, rows, h, d, wh_, width, hs_.data(), ph, term_);
  }

  /// Sets the filtered terms of rows [rows, n) to the exact zero a full
  /// Filter gives the rows no T_k reaches, for Gates over every row.
  void ZeroUnreached(int rows) {
    const size_t from = static_cast<size_t>(rows) * 4 * d;
    std::fill(xs_.begin() + from, xs_.end(), 0.0);
    std::fill(hs_.begin() + from, hs_.end(), 0.0);
  }

  /// The gates of rows [0, rows) after Filter. In one pass per element,
  /// the recorded step's operations in its order: ((x + h) + b) + v (.) c
  /// for the gates, f (.) c + i (.) g, o (.) tanh(c). With `keep` (kNumKept
  /// blocks of n x d), also what the recorded backward reads.
  void Gates(int rows, double* h_next, double* keep) {
    const int width = 4 * d;
    const size_t nd = static_cast<size_t>(n) * d;
    double* cd = c.data();
    for (int r = 0; r < rows; ++r) {
      const double* xr = xs_.data() + static_cast<size_t>(r) * width;
      const double* hr = hs_.data() + static_cast<size_t>(r) * width;
      for (int j = 0; j < d; ++j) {
        const size_t e = static_cast<size_t>(r) * d + j;
        const double c_prev = cd[e];
        const double i = StableSigmoid(((xr[j] + hr[j]) + b_i_[j]) +
                                       v_i_[e] * c_prev);
        const double f = StableSigmoid(((xr[d + j] + hr[d + j]) + b_f_[j]) +
                                       v_f_[e] * c_prev);
        const double g = std::tanh((xr[2 * d + j] + hr[2 * d + j]) + b_c_[j]);
        const double c_next = f * c_prev + i * g;
        const double o = StableSigmoid(
            ((xr[3 * d + j] + hr[3 * d + j]) + b_o_[j]) + v_o_[e] * c_next);
        const double tanh_c = std::tanh(c_next);
        cd[e] = c_next;
        h_next[e] = o * tanh_c;
        if (keep != nullptr) {
          keep[kI * nd + e] = i;
          keep[kF * nd + e] = f;
          keep[kG * nd + e] = g;
          keep[kO * nd + e] = o;
          keep[kTanhC * nd + e] = tanh_c;
          keep[kXo * nd + e] = xr[3 * d + j];
        }
      }
    }
  }

  const int n, d, order;
  Tensor c;
  // T_k h_{t-1} of the last Filter, one block per k.
  std::vector<double> ph;

 private:
  const std::vector<double> wx_, wh_;
  const double *v_i_, *v_f_, *v_o_, *b_i_, *b_f_, *b_c_, *b_o_;
  std::vector<double> xs_, hs_, term_;
};

/// The GRU kernel of one forward: [W_r|W_z|W_n] per k for X, [U_r|U_z] per
/// k for h. U_n filters r (.) h, so it stays on its own.
class FusedGru {
 public:
  /// What a recorded step keeps for its backward, one n x d block each:
  /// the three gates and the X terms of r and n.
  enum Kept { kR, kZ, kN, kXr, kXn, kNumKept };

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
      r_pad_[j] = StableSigmoid((0.0 + 0.0) + b_r_[j]);
  }

  static std::vector<const Tensor*> RowLocal(const GraphConvGruCell& cell) {
    return {&cell.b_r_.value(), &cell.b_z_.value(), &cell.b_n_.value()};
  }

  /// One recorded step (see the header comment).
  static RnnState Record(const GraphConvGruCell& cell, SharedBasis basis,
                         SnapshotOperators ops, const RnnState& prev);

  void Reset() {}

  /// As FusedLstm::Step: r and z from ((x + h) + b), then
  /// n = tanh((x_n + U_n *G (r (.) h)) + b_n) and h_t = n + z (.) (h - n).
  void Step(const std::vector<CsrMatrix>& basis, const CsrMatrix& ops,
            int first, int rows, const double* h, double* h_next) {
    Filter(basis, ops, first, rows, h);
    ResetGate(rows, h, nullptr);
    FilterReset(basis, rows);
    Output(rows, h, h_next, nullptr);
  }

  /// The filtered X terms of every gate and h terms of r and z for rows
  /// [0, rows); T_k h_{t-1} of those rows stays in ph.
  void Filter(const std::vector<CsrMatrix>& basis, const CsrMatrix& ops,
              int first, int rows, const double* h) {
    const size_t nd = static_cast<size_t>(n) * d;
    xs_.resize(3 * nd);
    hs_.resize(2 * nd);
    hn_.resize(nd);
    z_.resize(nd);
    rh_.resize(nd);
    FilterOperators(ops, first, order, rows, wx_, 3 * d, xs_.data(), term_);
    FilterRows(basis, rows, h, d, wh_, 2 * d, hs_.data(), ph, term_);
  }

  /// As FusedLstm::ZeroUnreached, for every filtered term of the step.
  void ZeroUnreached(int rows) {
    const size_t from = static_cast<size_t>(rows) * d;
    std::fill(xs_.begin() + 3 * from, xs_.end(), 0.0);
    std::fill(hs_.begin() + 2 * from, hs_.end(), 0.0);
    std::fill(hn_.begin() + from, hn_.end(), 0.0);
  }

  /// r, z and r (.) h. r (.) h is needed on every row T_k may read, so rows
  /// past `rows` use the reset gate of an unreached row.
  void ResetGate(int rows, const double* h, double* keep) {
    const size_t rd = static_cast<size_t>(rows) * d;
    const size_t nd = static_cast<size_t>(n) * d;
    for (int r = 0; r < rows; ++r) {
      const double* xr = xs_.data() + static_cast<size_t>(r) * 3 * d;
      const double* hr = hs_.data() + static_cast<size_t>(r) * 2 * d;
      for (int j = 0; j < d; ++j) {
        const size_t e = static_cast<size_t>(r) * d + j;
        const double reset = StableSigmoid((xr[j] + hr[j]) + b_r_[j]);
        z_[e] = StableSigmoid((xr[d + j] + hr[d + j]) + b_z_[j]);
        rh_[e] = reset * h[e];
        if (keep != nullptr) {
          keep[kR * nd + e] = reset;
          keep[kXr * nd + e] = xr[j];
        }
      }
    }
    for (size_t e = rd; e < nd; ++e) rh_[e] = r_pad_[e % d] * h[e];
  }

  /// U_n *G (r (.) h) for rows [0, rows); T_k (r (.) h) of those rows
  /// stays in prh.
  void FilterReset(const std::vector<CsrMatrix>& basis, int rows) {
    FilterRows(basis, rows, rh_.data(), d, wn_, d, hn_.data(), prh, term_);
  }

  /// The candidate n and h_t for rows [0, rows).
  void Output(int rows, const double* h, double* h_next, double* keep) {
    const size_t nd = static_cast<size_t>(n) * d;
    for (int r = 0; r < rows; ++r) {
      const double* xr = xs_.data() + static_cast<size_t>(r) * 3 * d;
      for (int j = 0; j < d; ++j) {
        const size_t e = static_cast<size_t>(r) * d + j;
        const double cand = std::tanh((xr[2 * d + j] + hn_[e]) + b_n_[j]);
        h_next[e] = cand + z_[e] * (h[e] - cand);
        if (keep != nullptr) {
          keep[kZ * nd + e] = z_[e];
          keep[kN * nd + e] = cand;
          keep[kXn * nd + e] = xr[2 * d + j];
        }
      }
    }
  }

  const int n, d, order;
  // T_k h_{t-1} and T_k (r (.) h_{t-1}) of the last step, one block per k.
  std::vector<double> ph, prh;

 private:
  const std::vector<double> wx_, wh_, wn_;
  const double *b_r_, *b_z_, *b_n_;
  std::vector<double> r_pad_;
  std::vector<double> xs_, hs_, hn_, z_, rh_, term_;
};

namespace {

/// h_t of every row for steps 0..depth-1 from the zero state, with a basis
/// and snapshot operators that have no entries: the trajectory of a row no
/// T_k reaches.
template <typename Fused>
std::vector<Tensor> ZeroInputTrajectory(Fused& fused, int depth) {
  const std::vector<CsrMatrix> no_graph(
      fused.order, CsrMatrix::FromTriplets(fused.n, fused.n, {}));
  const CsrMatrix no_ops =
      CsrMatrix::FromTriplets(fused.order * fused.n, fused.n, {});
  std::vector<Tensor> h;
  h.reserve(depth);
  fused.Reset();
  Tensor h0(fused.n, fused.d);
  for (int t = 0; t < depth; ++t) {
    Tensor next(fused.n, fused.d);
    fused.Step(no_graph, no_ops, 0, fused.n,
               t == 0 ? h0.data() : h[t - 1].data(), next.data());
    h.push_back(std::move(next));
  }
  return h;
}

/// The fused recurrence over a snapshot sequence: rows the basis reaches
/// run the kernel, the rest are copied from the cell's padding table.
template <typename Fused>
std::vector<Tensor> RunFused(
    Fused& fused, const char* span, PaddingTableCache& padding,
    const std::vector<const Tensor*>& row_local,
    const std::vector<CsrMatrix>& basis, const CsrMatrix& snapshot_ops) {
  CheckBasis(basis, fused.order, fused.n);
  const int step_rows = fused.order * fused.n;
  CASCN_CHECK(snapshot_ops.rows() % step_rows == 0)
      << "snapshot operators must be whole steps of K blocks of n rows";
  const int depth = snapshot_ops.rows() / step_rows;
  const std::shared_ptr<const PaddingTable> table =
      padding.Get(row_local, depth, [&](int deepest) {
        return ZeroInputTrajectory(fused, deepest);
      });
  const int reached = ReachedRows(basis);
  const size_t pad_from = static_cast<size_t>(reached) * fused.d;
  fused.Reset();
  std::vector<Tensor> h;
  h.reserve(depth);
  const Tensor h0(fused.n, fused.d);
  for (int t = 0; t < depth; ++t) {
    CASCN_TRACE_SPAN(span);
    CheckSnapshotOperators(snapshot_ops, t * step_rows, fused.order,
                           fused.n);
    Tensor next(fused.n, fused.d);
    fused.Step(basis, snapshot_ops, t * step_rows, reached,
               t == 0 ? h0.data() : h[t - 1].data(), next.data());
    const Tensor& pad = table->h[t];
    std::copy(pad.data() + pad_from, pad.data() + pad.size(),
              next.data() + pad_from);
    h.push_back(std::move(next));
  }
  return h;
}

// ---- Recorded steps ---------------------------------------------------------
//
// The backward of a recorded step is the per-gate tape's arithmetic, one
// contribution at a time, in the order Backward() ran that tape's nodes
// (see DESIGN.md, "The recorded step"). The kernels below are the tape
// ops' loops on row-major buffers, each writing its result from zero, and
// a node gradient the tape built from one contribution is written
// 0.0 + x, as AccumGrad's zero-filled buffer made it.

/// c (in x d) = P^T G for P (n x in) and G (n x d): MatMulTransposeA. A
/// caller may pass fewer rows than P has when the rest of P is zero, which
/// MatMulTransposeA skips.
void ProductTransposeA(const double* p, int n, int in, const double* g,
                       int d, double* c) {
  std::fill(c, c + static_cast<size_t>(in) * d, 0.0);
  for (int r = 0; r < n; ++r) {
    const double* prow = p + static_cast<size_t>(r) * in;
    const double* grow = g + static_cast<size_t>(r) * d;
    for (int i = 0; i < in; ++i) {
      const double a = prow[i];
      if (a == 0.0) continue;
      double* crow = c + static_cast<size_t>(i) * d;
      for (int j = 0; j < d; ++j) crow[j] += a * grow[j];
    }
  }
}

/// s (n x in) = G W^T for G (n x d) and W (in x d): MatMulTransposeB.
void ProductTransposeB(const double* g, int n, int d, const double* w,
                       int in, double* s) {
  for (int r = 0; r < n; ++r) {
    const double* grow = g + static_cast<size_t>(r) * d;
    for (int i = 0; i < in; ++i) {
      const double* wrow = w + static_cast<size_t>(i) * d;
      double acc = 0;
      for (int p = 0; p < d; ++p) acc += grow[p] * wrow[p];
      s[static_cast<size_t>(r) * in + i] = acc;
    }
  }
}

/// out (cols x d) = B^T s for B rows [first, first + rows) of t:
/// CsrMatrix::TransposeMatMulDense. For a snapshot operator P = T_k X it is
/// MatMulTransposeA over the dense T_k X: each element adds the rows in
/// ascending order, skipping exact zeros.
void ScatterTranspose(const CsrMatrix& t, int first, int rows,
                      const double* s, int d, double* out) {
  std::fill(out, out + static_cast<size_t>(t.cols()) * d, 0.0);
  const auto& offsets = t.row_offsets();
  const auto& cols = t.col_indices();
  const auto& vals = t.values();
  for (int r = 0; r < rows; ++r) {
    const double* srow = s + static_cast<size_t>(r) * d;
    for (int e = offsets[first + r]; e < offsets[first + r + 1]; ++e) {
      const double v = vals[e];
      double* orow = out + static_cast<size_t>(cols[e]) * d;
      for (int j = 0; j < d; ++j) orow[j] += v * srow[j];
    }
  }
}

/// The buffers of one node's backward, each allocated on first use and
/// reused for every contribution of its kind: AccumulateGrad copies or adds
/// a contribution before the next one is written.
class Scratch {
 public:
  enum Slot {
    kRowsGrad,  // n x d: an X-side filter's or a peephole's gradient
    kHiddenFilterGrad,
    kBiasGrad,
    kStateGrad,
    kPropagatedGrad,
    kGateGrad0,  // four slots for per-gate pre-activation gradients
    kNumSlots = kGateGrad0 + 4,
  };

  Tensor& Get(int slot, int rows, int cols) {
    Tensor& t = buffers_[slot];
    if (t.rows() != rows || t.cols() != cols) t = Tensor(rows, cols);
    return t;
  }

 private:
  Tensor buffers_[kNumSlots];
};

/// The filters W_0..W_{K-1} of a cell's ChebConv (built without a bias).
std::vector<ag::Variable> Filters(const ChebConv& conv) {
  std::vector<ag::Variable> w = conv.Parameters();
  CASCN_CHECK(static_cast<int>(w.size()) == conv.order());
  return w;
}

/// The gradient a gate's X-side term sum_k P_k W_k hands its filters,
/// given a = dL/d(gate preactivation): P_k^T a into W_k, k = K-1..0, as the
/// tape's MatMuls ran, for the snapshot operators P_k = T_k X (n x n).
void AddInputFilterGrads(Scratch& scratch, const SnapshotOperators& ops,
                         const std::vector<ag::Variable>& w, const double* a,
                         int d) {
  const int n = ops.stack->cols();
  Tensor& g = scratch.Get(Scratch::kRowsGrad, n, d);
  for (int k = static_cast<int>(w.size()) - 1; k >= 0; --k) {
    ScatterTranspose(*ops.stack, ops.first_row + k * n, n, a, d, g.data());
    ag::AccumulateGrad(w[k], g);
  }
}

/// The same for an h-side term sum_k (T_k s) W_k over a signal s (n x d)
/// with rows [0, rows) of T_k s in `ps`: for k = K-1..0, W_k's gradient
/// (T_k s)^T a and, when the signal takes one, T_k^T (a W_k^T) handed to
/// `to_signal`. T_k has no entries from row `rows` on, so a W_k^T is only
/// needed above it.
template <typename ToSignal>
void AddHiddenFilterGrads(Scratch& scratch,
                          const std::vector<CsrMatrix>& basis,
                          const std::vector<double>& ps, int rows, int n,
                          int d, const std::vector<ag::Variable>& w,
                          const double* a, bool signal_needs_grad,
                          ToSignal&& to_signal) {
  Tensor& g = scratch.Get(Scratch::kHiddenFilterGrad, d, d);
  Tensor& ds = scratch.Get(Scratch::kPropagatedGrad, n, d);
  Tensor& dsignal = scratch.Get(Scratch::kStateGrad, n, d);
  const size_t block = static_cast<size_t>(rows) * d;
  for (int k = static_cast<int>(w.size()) - 1; k >= 0; --k) {
    if (signal_needs_grad)
      ProductTransposeB(a, rows, d, w[k].value().data(), d, ds.data());
    ProductTransposeA(ps.data() + k * block, rows, d, a, d, g.data());
    ag::AccumulateGrad(w[k], g);
    if (signal_needs_grad) {
      ScatterTranspose(basis[k], 0, n, ds.data(), d, dsignal.data());
      to_signal(dsignal);
    }
  }
}

/// A bias's gradient: the column sums of a (n x d), Tensor::ColSums.
void AddBiasGrad(Scratch& scratch, const ag::Variable& b, const double* a,
                 int n, int d) {
  Tensor& g = scratch.Get(Scratch::kBiasGrad, 1, d);
  double* out = g.data();
  std::fill(out, out + d, 0.0);
  for (int r = 0; r < n; ++r)
    for (int j = 0; j < d; ++j) out[j] += a[static_cast<size_t>(r) * d + j];
  ag::AccumulateGrad(b, g);
}

/// A peephole term v (.) c: v's gradient a (.) c, then, when the state
/// takes one, the state's a (.) v.
void AddPeepholeGrads(Scratch& scratch, const ag::Variable& v,
                      const ag::Variable& state, const double* a, int n,
                      int d) {
  const size_t nd = static_cast<size_t>(n) * d;
  Tensor& g = scratch.Get(Scratch::kRowsGrad, n, d);
  const double* c = state.value().data();
  for (size_t e = 0; e < nd; ++e) g.data()[e] = a[e] * c[e];
  ag::AccumulateGrad(v, g);
  if (!state.needs_grad()) return;
  const double* vv = v.value().data();
  for (size_t e = 0; e < nd; ++e) g.data()[e] = a[e] * vv[e];
  ag::AccumulateGrad(state, g);
}

/// An n x d Tensor holding block `index` of `kept`.
Tensor KeptBlock(const std::vector<double>& kept, int index, int n, int d) {
  Tensor t(n, d);
  const size_t nd = static_cast<size_t>(n) * d;
  std::copy(kept.begin() + index * nd, kept.begin() + (index + 1) * nd,
            t.data());
  return t;
}

/// Estimated FLOPs of a step's filter products: every input width times
/// every output width it feeds, over n rows and K orders.
uint64_t FilterFlops(int n, int order, uint64_t in_times_out) {
  return 2 * static_cast<uint64_t>(n) * static_cast<uint64_t>(order) *
         in_times_out;
}

/// What one recorded LSTM step keeps, shared by its three nodes.
struct LstmRecord {
  enum Gate { kGateI, kGateF, kGateC, kGateO };
  int n = 0, d = 0;
  int rows = 0;  // one past the last row any T_k reaches
  std::vector<ag::Variable> wx[4], wh[4];
  ag::Variable v_i, v_f, v_o, b[4];
  ag::Variable h_prev, c_prev;
  SharedBasis basis;  // T_k
  SnapshotOperators ops;  // P_k = T_k X_t
  std::vector<double> ph, kept;
  // dL/d(output-gate preactivation), handed from the h_t node to the c_t
  // node, which runs the rest of that gate's backward after the others.
  Tensor d_out_gate;

  const double* Kept(int block) const {
    return kept.data() + static_cast<size_t>(block) * n * d;
  }

  /// A gate's bias and h-side filters, given its preactivation gradient.
  void HiddenGrads(Scratch& scratch, int gate, const double* a) {
    AddBiasGrad(scratch, b[gate], a, n, d);
    AddHiddenFilterGrads(scratch, *basis, ph, rows, n, d, wh[gate], a,
                         h_prev.needs_grad(),
                         [&](const Tensor& g) {
                           ag::AccumulateGrad(h_prev, g);
                         });
  }

  /// The h_t node's backward: h_t = o (.) tanh(c_t) and the output gate's
  /// peephole, as the tape ran them.
  void BackwardH(const Tensor& dh, const ag::Variable& c_node,
                 const ag::Variable& x_out_gate) {
    const size_t nd = static_cast<size_t>(n) * d;
    const double* o = Kept(FusedLstm::kO);
    const double* tanh_c = Kept(FusedLstm::kTanhC);
    d_out_gate = Tensor(n, d);
    Scratch scratch;
    Tensor& dc = scratch.Get(Scratch::kStateGrad, n, d);
    for (size_t e = 0; e < nd; ++e) {
      const double o_grad = 0.0 + dh.data()[e] * tanh_c[e];
      const double tanh_c_grad = 0.0 + dh.data()[e] * o[e];
      dc.data()[e] = tanh_c_grad * (1.0 - tanh_c[e] * tanh_c[e]);
      d_out_gate.data()[e] = 0.0 + (o_grad * o[e]) * (1.0 - o[e]);
    }
    ag::AccumulateGrad(c_node, dc);
    AddPeepholeGrads(scratch, v_o, c_node, d_out_gate.data(), n, d);
    ag::AccumulateGrad(x_out_gate, d_out_gate);
  }

  /// The c_t node's backward: c_t = f (.) c_{t-1} + i (.) g through the
  /// candidate, input and forget gates, then the output gate's bias and
  /// h-side filters once the h_t node has run.
  void BackwardC(const Tensor& dc) {
    const size_t nd = static_cast<size_t>(n) * d;
    const double* i = Kept(FusedLstm::kI);
    const double* f = Kept(FusedLstm::kF);
    const double* g = Kept(FusedLstm::kG);
    const double* c_prev_value = c_prev.value().data();
    Scratch scratch;
    Tensor& a_c = scratch.Get(Scratch::kGateGrad0, n, d);
    Tensor& a_i = scratch.Get(Scratch::kGateGrad0 + 1, n, d);
    Tensor& a_f = scratch.Get(Scratch::kGateGrad0 + 2, n, d);
    for (size_t e = 0; e < nd; ++e) {
      const double dce = dc.data()[e];
      const double i_grad = 0.0 + dce * g[e];
      const double g_grad = 0.0 + dce * i[e];
      const double f_grad = 0.0 + dce * c_prev_value[e];
      a_c.data()[e] = 0.0 + g_grad * (1.0 - g[e] * g[e]);
      a_i.data()[e] = 0.0 + (i_grad * i[e]) * (1.0 - i[e]);
      a_f.data()[e] = 0.0 + (f_grad * f[e]) * (1.0 - f[e]);
    }
    HiddenGrads(scratch, kGateC, a_c.data());
    AddInputFilterGrads(scratch, ops, wx[kGateC], a_c.data(), d);
    AddPeepholeGrads(scratch, v_i, c_prev, a_i.data(), n, d);
    HiddenGrads(scratch, kGateI, a_i.data());
    AddInputFilterGrads(scratch, ops, wx[kGateI], a_i.data(), d);
    if (c_prev.needs_grad()) {
      Tensor& to_c = scratch.Get(Scratch::kStateGrad, n, d);
      for (size_t e = 0; e < nd; ++e) to_c.data()[e] = dc.data()[e] * f[e];
      ag::AccumulateGrad(c_prev, to_c);
    }
    AddPeepholeGrads(scratch, v_f, c_prev, a_f.data(), n, d);
    HiddenGrads(scratch, kGateF, a_f.data());
    AddInputFilterGrads(scratch, ops, wx[kGateF], a_f.data(), d);
    if (!d_out_gate.empty()) HiddenGrads(scratch, kGateO, d_out_gate.data());
  }
};

}  // namespace

RnnState FusedLstm::Record(const GraphConvLstmCell& cell, SharedBasis basis,
                           SnapshotOperators ops, const RnnState& prev) {
  FusedLstm fused(cell);
  const int n = fused.n, d = fused.d;
  fused.c = prev.c.value();
  auto rec = std::make_shared<LstmRecord>();
  rec->n = n;
  rec->d = d;
  rec->rows = ReachedRows(*basis);
  {
    CASCN_TRACE_SPAN("cheb_conv");
    fused.Filter(*basis, *ops.stack, ops.first_row, rec->rows,
                 prev.h.value().data());
  }
  fused.ZeroUnreached(rec->rows);
  Tensor h(n, d);
  rec->kept.resize(static_cast<size_t>(kNumKept) * n * d);
  fused.Gates(n, h.data(), rec->kept.data());
  rec->ph = std::move(fused.ph);
  const ChebConv* convs_x[] = {cell.conv_x_i_.get(), cell.conv_x_f_.get(),
                               cell.conv_x_c_.get(), cell.conv_x_o_.get()};
  const ChebConv* convs_h[] = {cell.conv_h_i_.get(), cell.conv_h_f_.get(),
                               cell.conv_h_c_.get(), cell.conv_h_o_.get()};
  for (int gate = 0; gate < 4; ++gate) {
    rec->wx[gate] = Filters(*convs_x[gate]);
    rec->wh[gate] = Filters(*convs_h[gate]);
  }
  rec->v_i = cell.v_i_;
  rec->v_f = cell.v_f_;
  rec->v_o = cell.v_o_;
  rec->b[LstmRecord::kGateI] = cell.b_i_;
  rec->b[LstmRecord::kGateF] = cell.b_f_;
  rec->b[LstmRecord::kGateC] = cell.b_c_;
  rec->b[LstmRecord::kGateO] = cell.b_o_;
  rec->h_prev = prev.h;
  rec->c_prev = prev.c;
  rec->basis = std::move(basis);
  rec->ops = std::move(ops);

  // The output gate's X term is its own node, listed first among h_t's
  // parents: the tape's graph search reached that term before h_{t-1}, so
  // when the search first reaches h_{t-1} through this step, these filters
  // take their gradients after every earlier step's, as the tape's did.
  const ag::Variable x_out_gate = ag::RecordOp(
      KeptBlock(rec->kept, kXo, n, d), rec->wx[LstmRecord::kGateO],
      [rec](const Tensor& g) {
        Scratch scratch;
        AddInputFilterGrads(scratch, rec->ops, rec->wx[LstmRecord::kGateO],
                            g.data(), rec->d);
      },
      0);
  // Parameters are leaves, so where they sit among a node's parents does
  // not move any node in the graph search.
  std::vector<ag::Variable> c_parents = cell.Parameters();
  c_parents.insert(c_parents.begin(), {prev.h, prev.c});
  RnnState next;
  next.c = ag::RecordOp(std::move(fused.c), c_parents,
                        [rec](const Tensor& dc) { rec->BackwardC(dc); }, 0);
  next.h = ag::RecordOp(
      std::move(h), {x_out_gate, prev.h, next.c, rec->v_o},
      [rec, c_node = next.c, x_out_gate](const Tensor& dh) {
        rec->BackwardH(dh, c_node, x_out_gate);
      },
      FilterFlops(n, fused.order, static_cast<uint64_t>(n + d) * 4 * d));
  return next;
}

namespace {

/// What one recorded GRU step keeps, shared by its three nodes.
struct GruRecord {
  enum Gate { kGateR, kGateZ, kGateN };
  int n = 0, d = 0;
  int rows = 0;  // one past the last row any T_k reaches
  std::vector<ag::Variable> wx[3], wh[3];
  ag::Variable b[3];
  ag::Variable h_prev;
  SharedBasis basis;  // T_k
  SnapshotOperators ops;  // P_k = T_k X_t
  std::vector<double> ph, prh, kept;

  const double* Kept(int block) const {
    return kept.data() + static_cast<size_t>(block) * n * d;
  }

  /// The h_t node's backward: h_t = n + z (.) (h_{t-1} - n) through the
  /// update gate, the candidate (with U_n over r (.) h_{t-1}) and the reset
  /// gate, as the tape ran them. The X terms of r and n are their own
  /// nodes and take their gradients last.
  void BackwardH(const Tensor& dh, const ag::Variable& x_reset,
                 const ag::Variable& x_candidate) {
    const size_t nd = static_cast<size_t>(n) * d;
    const double* r = Kept(FusedGru::kR);
    const double* z = Kept(FusedGru::kZ);
    const double* cand = Kept(FusedGru::kN);
    const double* h = h_prev.value().data();
    const bool h_needs_grad = h_prev.needs_grad();
    auto to_h = [&](const Tensor& g) { ag::AccumulateGrad(h_prev, g); };
    Scratch scratch;
    Tensor& a_z = scratch.Get(Scratch::kGateGrad0, n, d);
    Tensor& a_n = scratch.Get(Scratch::kGateGrad0 + 1, n, d);
    Tensor& diff_grad = scratch.Get(Scratch::kStateGrad, n, d);
    for (size_t e = 0; e < nd; ++e) {
      const double zd_grad = 0.0 + dh.data()[e];
      const double z_grad = 0.0 + zd_grad * (h[e] - cand[e]);
      diff_grad.data()[e] = 0.0 + zd_grad * z[e];
      const double n_grad = (0.0 + dh.data()[e]) + diff_grad.data()[e] * -1.0;
      a_z.data()[e] = 0.0 + (z_grad * z[e]) * (1.0 - z[e]);
      a_n.data()[e] = 0.0 + n_grad * (1.0 - cand[e] * cand[e]);
    }
    if (h_needs_grad) to_h(diff_grad);
    AddBiasGrad(scratch, b[kGateZ], a_z.data(), n, d);
    AddHiddenFilterGrads(scratch, *basis, ph, rows, n, d, wh[kGateZ],
                         a_z.data(), h_needs_grad, to_h);
    AddInputFilterGrads(scratch, ops, wx[kGateZ], a_z.data(), d);

    AddBiasGrad(scratch, b[kGateN], a_n.data(), n, d);
    Tensor& rh_grad = scratch.Get(Scratch::kGateGrad0 + 2, n, d);
    rh_grad.Zero();
    AddHiddenFilterGrads(scratch, *basis, prh, rows, n, d, wh[kGateN],
                         a_n.data(), true,
                         [&](const Tensor& g) { rh_grad.AddInPlace(g); });
    Tensor& a_r = scratch.Get(Scratch::kGateGrad0 + 3, n, d);
    for (size_t e = 0; e < nd; ++e) {
      const double r_grad = 0.0 + rh_grad.data()[e] * h[e];
      a_r.data()[e] = 0.0 + (r_grad * r[e]) * (1.0 - r[e]);
    }
    if (h_needs_grad) {
      Tensor& g = scratch.Get(Scratch::kStateGrad, n, d);
      for (size_t e = 0; e < nd; ++e) g.data()[e] = rh_grad.data()[e] * r[e];
      to_h(g);
    }
    AddBiasGrad(scratch, b[kGateR], a_r.data(), n, d);
    AddHiddenFilterGrads(scratch, *basis, ph, rows, n, d, wh[kGateR],
                         a_r.data(), h_needs_grad, to_h);
    ag::AccumulateGrad(x_reset, a_r);
    ag::AccumulateGrad(x_candidate, a_n);
  }
};

}  // namespace

RnnState FusedGru::Record(const GraphConvGruCell& cell, SharedBasis basis,
                          SnapshotOperators ops, const RnnState& prev) {
  FusedGru fused(cell);
  const int n = fused.n, d = fused.d;
  const double* h_prev = prev.h.value().data();
  auto rec = std::make_shared<GruRecord>();
  rec->n = n;
  rec->d = d;
  rec->rows = ReachedRows(*basis);
  rec->kept.resize(static_cast<size_t>(kNumKept) * n * d);
  {
    CASCN_TRACE_SPAN("cheb_conv");
    fused.Filter(*basis, *ops.stack, ops.first_row, rec->rows, h_prev);
  }
  fused.ZeroUnreached(rec->rows);
  fused.ResetGate(n, h_prev, rec->kept.data());
  {
    CASCN_TRACE_SPAN("cheb_conv");
    fused.FilterReset(*basis, rec->rows);
  }
  Tensor h(n, d);
  fused.Output(n, h_prev, h.data(), rec->kept.data());
  rec->ph = std::move(fused.ph);
  rec->prh = std::move(fused.prh);
  rec->wx[GruRecord::kGateR] = Filters(*cell.conv_x_r_);
  rec->wx[GruRecord::kGateZ] = Filters(*cell.conv_x_z_);
  rec->wx[GruRecord::kGateN] = Filters(*cell.conv_x_n_);
  rec->wh[GruRecord::kGateR] = Filters(*cell.conv_h_r_);
  rec->wh[GruRecord::kGateZ] = Filters(*cell.conv_h_z_);
  rec->wh[GruRecord::kGateN] = Filters(*cell.conv_h_n_);
  rec->b[GruRecord::kGateR] = cell.b_r_;
  rec->b[GruRecord::kGateZ] = cell.b_z_;
  rec->b[GruRecord::kGateN] = cell.b_n_;
  rec->h_prev = prev.h;
  rec->basis = std::move(basis);
  rec->ops = std::move(ops);

  // The X terms of n and r are their own nodes, listed first among h_t's
  // parents in the order the tape's graph search reached them.
  auto x_term = [&](int gate, int block) {
    return ag::RecordOp(
        KeptBlock(rec->kept, block, n, d), rec->wx[gate],
        [rec, gate](const Tensor& g) {
          Scratch scratch;
          AddInputFilterGrads(scratch, rec->ops, rec->wx[gate], g.data(),
                              rec->d);
        },
        0);
  };
  const ag::Variable x_candidate = x_term(GruRecord::kGateN, kXn);
  const ag::Variable x_reset = x_term(GruRecord::kGateR, kXr);
  std::vector<ag::Variable> parents = cell.Parameters();
  parents.insert(parents.begin(), {x_candidate, x_reset, prev.h});
  RnnState next;
  next.h = ag::RecordOp(
      std::move(h), parents,
      [rec, x_reset, x_candidate](const Tensor& dh) {
        rec->BackwardH(dh, x_reset, x_candidate);
      },
      FilterFlops(n, fused.order,
                  static_cast<uint64_t>(n) * 3 * d +
                      static_cast<uint64_t>(d) * 3 * d));
  return next;
}

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
  CASCN_TRACE_SPAN("graph_lstm_step");
  internal::CheckBasis(*cheb_basis, cheb_order(), num_nodes_);
  internal::CheckSnapshotOperators(*snapshot_ops.stack,
                                   snapshot_ops.first_row, cheb_order(),
                                   num_nodes_);
  CASCN_CHECK(prev.h.rows() == num_nodes_ && prev.h.cols() == hidden_dim_ &&
              prev.c.value().SameShape(prev.h.value()));
  if (ag::GradEnabled()) {
    return internal::FusedLstm::Record(*this, std::move(cheb_basis),
                                       std::move(snapshot_ops), prev);
  }
  internal::FusedLstm fused(*this);
  fused.c = prev.c.value();
  Tensor h(num_nodes_, hidden_dim_);
  fused.Step(*cheb_basis, *snapshot_ops.stack, snapshot_ops.first_row,
             num_nodes_, prev.h.value().data(), h.data());
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
    const CsrMatrix& snapshot_ops) const {
  internal::FusedLstm fused(*this);
  return internal::RunFused(fused, "graph_lstm_step", padding_,
                            internal::FusedLstm::RowLocal(*this), cheb_basis,
                            snapshot_ops);
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
  CASCN_TRACE_SPAN("graph_gru_step");
  internal::CheckBasis(*cheb_basis, cheb_order(), num_nodes_);
  internal::CheckSnapshotOperators(*snapshot_ops.stack,
                                   snapshot_ops.first_row, cheb_order(),
                                   num_nodes_);
  CASCN_CHECK(prev.h.rows() == num_nodes_ && prev.h.cols() == hidden_dim_);
  if (ag::GradEnabled()) {
    return internal::FusedGru::Record(*this, std::move(cheb_basis),
                                      std::move(snapshot_ops), prev);
  }
  internal::FusedGru fused(*this);
  Tensor h(num_nodes_, hidden_dim_);
  fused.Step(*cheb_basis, *snapshot_ops.stack, snapshot_ops.first_row,
             num_nodes_, prev.h.value().data(), h.data());
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
    const CsrMatrix& snapshot_ops) const {
  internal::FusedGru fused(*this);
  return internal::RunFused(fused, "graph_gru_step", padding_,
                            internal::FusedGru::RowLocal(*this), cheb_basis,
                            snapshot_ops);
}

}  // namespace cascn::nn

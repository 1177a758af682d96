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

/// Rows [0, rows) of sum_k (T_k s) W_k into `out` (rows x width), for a
/// signal s (n x in) and W_k block k of `packed`. Element by element it is
/// the recorded ops' arithmetic: each row of T_k s gathers its CSR entries
/// in order from zero (CsrMatrix::MatMulDense), each product adds p in
/// ascending order from zero and skips zero entries of T_k s
/// (MatMulAccum), and the terms add in k order (ChebConv::Apply).
void FilterRows(const std::vector<CsrMatrix>& basis, int rows,
                const double* s, int in, const std::vector<double>& packed,
                int width, double* out, std::vector<double>& propagated,
                std::vector<double>& term) {
  const size_t out_size = static_cast<size_t>(rows) * width;
  for (size_t k = 0; k < basis.size(); ++k) {
    const auto& offsets = basis[k].row_offsets();
    const auto& cols = basis[k].col_indices();
    const auto& vals = basis[k].values();
    propagated.assign(static_cast<size_t>(rows) * in, 0.0);
    for (int r = 0; r < rows; ++r) {
      double* prow = propagated.data() + static_cast<size_t>(r) * in;
      for (int e = offsets[r]; e < offsets[r + 1]; ++e) {
        const double v = vals[e];
        const double* srow = s + static_cast<size_t>(cols[e]) * in;
        for (int j = 0; j < in; ++j) prow[j] += v * srow[j];
      }
    }
    double* dst = out;
    if (k > 0) {
      term.assign(out_size, 0.0);
      dst = term.data();
    } else {
      std::fill(out, out + out_size, 0.0);
    }
    const double* w = packed.data() + k * static_cast<size_t>(in) * width;
    for (int r = 0; r < rows; ++r) {
      const double* prow = propagated.data() + static_cast<size_t>(r) * in;
      double* drow = dst + static_cast<size_t>(r) * width;
      for (int p = 0; p < in; ++p) {
        const double a = prow[p];
        if (a == 0.0) continue;
        const double* wrow = w + static_cast<size_t>(p) * width;
        for (int j = 0; j < width; ++j) drow[j] += a * wrow[j];
      }
    }
    if (k > 0)
      for (size_t i = 0; i < out_size; ++i) out[i] += dst[i];
  }
}

void CheckBasis(const std::vector<CsrMatrix>& basis, int order, int n) {
  CASCN_CHECK(static_cast<int>(basis.size()) == order)
      << "Chebyshev basis order mismatch: basis has " << basis.size()
      << ", layer expects " << order;
  for (const CsrMatrix& t : basis)
    CASCN_CHECK(t.rows() == n && t.cols() == n) << "T_k must be n x n";
}

}  // namespace

/// The values-only LSTM kernel of one forward: the gate filters packed as
/// [W_i|W_f|W_c|W_o] per k, for X and for h, and the memory cell c.
class FusedLstm {
 public:
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

  void Reset() { c.Zero(); }

  /// Rows [0, rows) of one step over signal x (n x n) and h_{t-1} (n x d):
  /// writes h_t into h_next and c_t into c. In one pass per element, the
  /// recorded step's operations in its order: ((x + h) + b) + v (.) c for
  /// the gates, f (.) c + i (.) g, o (.) tanh(c).
  void Step(const std::vector<CsrMatrix>& basis, int rows, const double* x,
            const double* h, double* h_next) {
    const int width = 4 * d;
    xs_.resize(static_cast<size_t>(n) * width);
    hs_.resize(static_cast<size_t>(n) * width);
    FilterRows(basis, rows, x, n, wx_, width, xs_.data(), propagated_, term_);
    FilterRows(basis, rows, h, d, wh_, width, hs_.data(), propagated_, term_);
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
        cd[e] = c_next;
        h_next[e] = o * std::tanh(c_next);
      }
    }
  }

  const int n, d, order;
  Tensor c;

 private:
  const std::vector<double> wx_, wh_;
  const double *v_i_, *v_f_, *v_o_, *b_i_, *b_f_, *b_c_, *b_o_;
  std::vector<double> xs_, hs_, propagated_, term_;
};

/// The values-only GRU kernel of one forward: [W_r|W_z|W_n] per k for X,
/// [U_r|U_z] per k for h. U_n filters r (.) h, so it stays on its own.
class FusedGru {
 public:
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

  void Reset() {}

  /// As FusedLstm::Step: r and z from ((x + h) + b), then
  /// n = tanh((x_n + U_n *G (r (.) h)) + b_n) and h_t = n + z (.) (h - n).
  /// r (.) h is needed on every row T_k may read, so rows past `rows` use
  /// the reset gate of an unreached row.
  void Step(const std::vector<CsrMatrix>& basis, int rows, const double* x,
            const double* h, double* h_next) {
    const size_t rd = static_cast<size_t>(rows) * d;
    xs_.resize(static_cast<size_t>(n) * 3 * d);
    hs_.resize(static_cast<size_t>(n) * 2 * d);
    hn_.resize(static_cast<size_t>(n) * d);
    z_.resize(static_cast<size_t>(n) * d);
    rh_.resize(static_cast<size_t>(n) * d);
    FilterRows(basis, rows, x, n, wx_, 3 * d, xs_.data(), propagated_, term_);
    FilterRows(basis, rows, h, d, wh_, 2 * d, hs_.data(), propagated_, term_);
    for (int r = 0; r < rows; ++r) {
      const double* xr = xs_.data() + static_cast<size_t>(r) * 3 * d;
      const double* hr = hs_.data() + static_cast<size_t>(r) * 2 * d;
      for (int j = 0; j < d; ++j) {
        const size_t e = static_cast<size_t>(r) * d + j;
        const double reset = StableSigmoid((xr[j] + hr[j]) + b_r_[j]);
        z_[e] = StableSigmoid((xr[d + j] + hr[d + j]) + b_z_[j]);
        rh_[e] = reset * h[e];
      }
    }
    for (size_t e = rd; e < rh_.size(); ++e) rh_[e] = r_pad_[e % d] * h[e];
    FilterRows(basis, rows, rh_.data(), d, wn_, d, hn_.data(), propagated_,
               term_);
    for (int r = 0; r < rows; ++r) {
      const double* xr = xs_.data() + static_cast<size_t>(r) * 3 * d;
      for (int j = 0; j < d; ++j) {
        const size_t e = static_cast<size_t>(r) * d + j;
        const double cand = std::tanh((xr[2 * d + j] + hn_[e]) + b_n_[j]);
        h_next[e] = cand + z_[e] * (h[e] - cand);
      }
    }
  }

  const int n, d, order;

 private:
  const std::vector<double> wx_, wh_, wn_;
  const double *b_r_, *b_z_, *b_n_;
  std::vector<double> r_pad_;
  std::vector<double> xs_, hs_, hn_, z_, rh_, propagated_, term_;
};

namespace {

/// h_t of every row for steps 0..depth-1 from the zero state, over a basis
/// with no entries: the trajectory of a row no T_k reaches.
template <typename Fused>
std::vector<Tensor> ZeroInputTrajectory(Fused& fused, int depth) {
  const std::vector<CsrMatrix> no_graph(
      fused.order, CsrMatrix::FromTriplets(fused.n, fused.n, {}));
  const Tensor x(fused.n, fused.n);
  std::vector<Tensor> h;
  h.reserve(depth);
  fused.Reset();
  Tensor h0(fused.n, fused.d);
  for (int t = 0; t < depth; ++t) {
    Tensor next(fused.n, fused.d);
    fused.Step(no_graph, fused.n, x.data(),
               t == 0 ? h0.data() : h[t - 1].data(), next.data());
    h.push_back(std::move(next));
  }
  return h;
}

/// The fused recurrence over a snapshot sequence: rows the basis reaches
/// run the kernel, the rest are copied from the cell's padding table.
template <typename Fused>
std::vector<Tensor> RunFused(Fused& fused, const char* span,
                             PaddingTableCache& padding,
                             const std::vector<const Tensor*>& row_local,
                             const std::vector<CsrMatrix>& basis,
                             const std::vector<Tensor>& signals) {
  CheckBasis(basis, fused.order, fused.n);
  const int depth = static_cast<int>(signals.size());
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
    CASCN_CHECK(signals[t].rows() == fused.n && signals[t].cols() == fused.n)
        << "snapshot signal must be n x n";
    Tensor next(fused.n, fused.d);
    fused.Step(basis, reached, signals[t].data(),
               t == 0 ? h0.data() : h[t - 1].data(), next.data());
    const Tensor& pad = table->h[t];
    std::copy(pad.data() + pad_from, pad.data() + pad.size(),
              next.data() + pad_from);
    h.push_back(std::move(next));
  }
  return h;
}

}  // namespace
}  // namespace internal

namespace {

/// A signal every gate filters, with its propagation {T_k v} computed once
/// when no gradient flows through it (see the header comment).
class SharedSignal {
 public:
  SharedSignal(const std::vector<CsrMatrix>& basis, const ag::Variable& v)
      : basis_(basis), signal_(v) {
    if (!v.needs_grad()) propagated_ = ChebConv::Propagate(basis, v);
  }

  /// conv.Forward(basis, v), reusing the shared propagation when there is
  /// one.
  ag::Variable Filter(const ChebConv& conv) const {
    return propagated_.empty() ? conv.Forward(basis_, signal_)
                               : conv.Apply(propagated_);
  }

 private:
  const std::vector<CsrMatrix>& basis_;
  const ag::Variable& signal_;
  std::vector<ag::Variable> propagated_;
};

}  // namespace

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

RnnState GraphConvLstmCell::Step(const std::vector<CsrMatrix>& cheb_basis,
                                 const ag::Variable& x,
                                 const RnnState& prev) const {
  CASCN_TRACE_SPAN("graph_lstm_step");
  CASCN_CHECK(x.rows() == num_nodes_ && x.cols() == num_nodes_)
      << "snapshot signal must be n x n";
  if (!ag::GradEnabled()) {
    internal::CheckBasis(cheb_basis, cheb_order(), num_nodes_);
    internal::FusedLstm fused(*this);
    CASCN_CHECK(prev.h.value().SameShape(fused.c) &&
                prev.c.value().SameShape(fused.c));
    fused.c = prev.c.value();
    Tensor h(num_nodes_, hidden_dim_);
    fused.Step(cheb_basis, num_nodes_, x.value().data(),
               prev.h.value().data(), h.data());
    RnnState next;
    next.h = ag::Variable::Leaf(std::move(h));
    next.c = ag::Variable::Leaf(std::move(fused.c));
    return next;
  }
  const SharedSignal sx(cheb_basis, x);
  const SharedSignal sh(cheb_basis, prev.h);
  auto gate = [&](const ChebConv& cx, const ChebConv& ch,
                  const ag::Variable& bias) {
    return ag::AddRowBroadcast(ag::Add(sx.Filter(cx), sh.Filter(ch)), bias);
  };
  const ag::Variable i = ag::Sigmoid(ag::Add(
      gate(*conv_x_i_, *conv_h_i_, b_i_), ag::Mul(v_i_, prev.c)));
  const ag::Variable f = ag::Sigmoid(ag::Add(
      gate(*conv_x_f_, *conv_h_f_, b_f_), ag::Mul(v_f_, prev.c)));
  const ag::Variable g = ag::Tanh(gate(*conv_x_c_, *conv_h_c_, b_c_));
  RnnState next;
  next.c = ag::Add(ag::Mul(f, prev.c), ag::Mul(i, g));
  const ag::Variable o = ag::Sigmoid(ag::Add(
      gate(*conv_x_o_, *conv_h_o_, b_o_), ag::Mul(v_o_, next.c)));
  next.h = ag::Mul(o, ag::Tanh(next.c));
  return next;
}

std::vector<Tensor> GraphConvLstmCell::Run(
    const std::vector<CsrMatrix>& cheb_basis,
    const std::vector<Tensor>& signals) const {
  internal::FusedLstm fused(*this);
  return internal::RunFused(fused, "graph_lstm_step", padding_,
                            internal::FusedLstm::RowLocal(*this), cheb_basis,
                            signals);
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

RnnState GraphConvGruCell::Step(const std::vector<CsrMatrix>& cheb_basis,
                                const ag::Variable& x,
                                const RnnState& prev) const {
  CASCN_TRACE_SPAN("graph_gru_step");
  CASCN_CHECK(x.rows() == num_nodes_ && x.cols() == num_nodes_)
      << "snapshot signal must be n x n";
  if (!ag::GradEnabled()) {
    internal::CheckBasis(cheb_basis, cheb_order(), num_nodes_);
    CASCN_CHECK(prev.h.rows() == num_nodes_ && prev.h.cols() == hidden_dim_);
    internal::FusedGru fused(*this);
    Tensor h(num_nodes_, hidden_dim_);
    fused.Step(cheb_basis, num_nodes_, x.value().data(),
               prev.h.value().data(), h.data());
    RnnState next;
    next.h = ag::Variable::Leaf(std::move(h));
    return next;
  }
  const SharedSignal sx(cheb_basis, x);
  const SharedSignal sh(cheb_basis, prev.h);
  const ag::Variable r = ag::Sigmoid(ag::AddRowBroadcast(
      ag::Add(sx.Filter(*conv_x_r_), sh.Filter(*conv_h_r_)), b_r_));
  const ag::Variable z = ag::Sigmoid(ag::AddRowBroadcast(
      ag::Add(sx.Filter(*conv_x_z_), sh.Filter(*conv_h_z_)), b_z_));
  const ag::Variable n = ag::Tanh(ag::AddRowBroadcast(
      ag::Add(sx.Filter(*conv_x_n_),
              conv_h_n_->Forward(cheb_basis, ag::Mul(r, prev.h))),
      b_n_));
  RnnState next;
  next.h = ag::Add(n, ag::Mul(z, ag::Sub(prev.h, n)));
  return next;
}

std::vector<Tensor> GraphConvGruCell::Run(
    const std::vector<CsrMatrix>& cheb_basis,
    const std::vector<Tensor>& signals) const {
  internal::FusedGru fused(*this);
  return internal::RunFused(fused, "graph_gru_step", padding_,
                            internal::FusedGru::RowLocal(*this), cheb_basis,
                            signals);
}

}  // namespace cascn::nn

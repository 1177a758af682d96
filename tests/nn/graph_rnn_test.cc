#include "nn/graph_rnn_cells.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "../testing/test_data.h"
#include "common/rng.h"
#include "core/encoder.h"
#include "graph/chebyshev.h"
#include "nn/cheb_conv.h"
#include "nn/optimizer.h"
#include "tensor/grad_check.h"

namespace cascn::nn {
namespace {

/// A tiny n-node Chebyshev basis {I, L, ...} for testing.
std::vector<CsrMatrix> TinyBasis(int n, int order) {
  // A symmetric "scaled Laplacian"-like operator.
  std::vector<Triplet> trips;
  for (int i = 0; i < n; ++i) trips.push_back({i, i, -0.5});
  for (int i = 0; i + 1 < n; ++i) {
    trips.push_back({i, i + 1, 0.25});
    trips.push_back({i + 1, i, 0.25});
  }
  return ChebyshevBasis(CsrMatrix::FromTriplets(n, n, trips), order, n);
}

TEST(ChebConvTest, ForwardMatchesManualSum) {
  Rng rng(1);
  const int n = 3;
  ChebConv conv(n, 2, /*k=*/2, rng, /*with_bias=*/false);
  const auto basis = TinyBasis(n, 2);
  Tensor x_val = Tensor::RandomNormal(n, n, 1.0, rng);
  ag::Variable x = ag::Variable::Leaf(x_val);
  ag::Variable y = conv.Forward(basis, x);

  // Manual: sum_k T_k X W_k.
  auto params = conv.NamedParameters();
  ASSERT_EQ(params.size(), 2u);
  Tensor expected = MatMul(basis[0].MatMulDense(x_val),
                           params[0].second.value());
  expected.AddInPlace(
      MatMul(basis[1].MatMulDense(x_val), params[1].second.value()));
  EXPECT_TRUE(AllClose(y.value(), expected, 1e-12));
}

TEST(ChebConvTest, BiasIsAdded) {
  Rng rng(2);
  ChebConv conv(3, 2, 1, rng, /*with_bias=*/true);
  const auto basis = TinyBasis(3, 1);
  ag::Variable x = ag::Variable::Leaf(Tensor(3, 3));
  ag::Variable y = conv.Forward(basis, x);
  // Zero input: output must equal broadcast bias (zero-init) -> zeros.
  EXPECT_NEAR(y.value().AbsMax(), 0.0, 1e-12);
  EXPECT_EQ(static_cast<int>(conv.Parameters().size()), 2);
}

TEST(ChebConvTest, OrderMismatchDies) {
  Rng rng(3);
  ChebConv conv(3, 2, 2, rng);
  const auto basis = TinyBasis(3, 1);  // too short
  ag::Variable x = ag::Variable::Leaf(Tensor(3, 3));
  EXPECT_DEATH(conv.Forward(basis, x), "order mismatch");
}

TEST(ChebConvTest, GradCheck) {
  Rng rng(4);
  const int n = 3;
  ChebConv conv(n, 2, 2, rng);
  const auto basis = TinyBasis(n, 2);
  ag::Variable x = ag::Variable::Leaf(Tensor::RandomNormal(n, n, 1.0, rng));
  auto params = conv.Parameters();
  for (auto& p : params) {
    auto r = ag::CheckGradient(p, [&](const ag::Variable&) {
      return ag::Sum(ag::Square(conv.Forward(basis, x)));
    });
    EXPECT_TRUE(r.ok) << r.max_rel_error;
  }
}

TEST(GraphConvLstmCellTest, StepShapes) {
  Rng rng(5);
  const int n = 4, h = 3;
  GraphConvLstmCell cell(n, h, 2, rng);
  EXPECT_EQ(cell.num_nodes(), n);
  EXPECT_EQ(cell.hidden_dim(), h);
  EXPECT_EQ(cell.cheb_order(), 2);
  const auto basis = TinyBasis(n, 2);
  RnnState state = cell.InitialState();
  ag::Variable x = ag::Variable::Leaf(Tensor::RandomNormal(n, n, 1.0, rng));
  state = cell.Step(basis, x, state);
  EXPECT_EQ(state.h.rows(), n);
  EXPECT_EQ(state.h.cols(), h);
  EXPECT_EQ(state.c.rows(), n);
}

TEST(GraphConvLstmCellTest, HiddenBounded) {
  Rng rng(6);
  const int n = 3;
  GraphConvLstmCell cell(n, 4, 2, rng);
  const auto basis = TinyBasis(n, 2);
  RnnState state = cell.InitialState();
  for (int t = 0; t < 10; ++t) {
    ag::Variable x =
        ag::Variable::Leaf(Tensor::RandomNormal(n, n, 2.0, rng));
    state = cell.Step(basis, x, state);
  }
  EXPECT_LE(state.h.value().AbsMax(), 1.0);
}

TEST(GraphConvLstmCellTest, GradientsReachEveryParameter) {
  Rng rng(7);
  const int n = 3;
  GraphConvLstmCell cell(n, 2, 2, rng);
  const auto basis = TinyBasis(n, 2);
  RnnState state = cell.InitialState();
  for (int t = 0; t < 2; ++t) {
    ag::Variable x =
        ag::Variable::Leaf(Tensor::RandomNormal(n, n, 1.0, rng));
    state = cell.Step(basis, x, state);
  }
  ag::Sum(ag::Square(state.h)).Backward();
  for (const auto& [name, p] : cell.NamedParameters())
    EXPECT_FALSE(p.grad().empty()) << name;
}

TEST(GraphConvLstmCellTest, GradCheckRepresentativeParams) {
  Rng rng(8);
  const int n = 2;
  GraphConvLstmCell cell(n, 2, 2, rng);
  const auto basis = TinyBasis(n, 2);
  ag::Variable x = ag::Variable::Leaf(Tensor::RandomNormal(n, n, 1.0, rng));
  auto forward = [&](const ag::Variable&) {
    RnnState s = cell.InitialState();
    s = cell.Step(basis, x, s);
    s = cell.Step(basis, x, s);
    return ag::Sum(ag::Square(s.h));
  };
  auto named = cell.NamedParameters();
  for (size_t i = 0; i < named.size(); i += 5) {
    auto r = ag::CheckGradient(named[i].second, forward);
    EXPECT_TRUE(r.ok) << named[i].first << " rel " << r.max_rel_error;
  }
}

TEST(GraphConvGruCellTest, StepShapesAndBounds) {
  Rng rng(9);
  const int n = 4;
  GraphConvGruCell cell(n, 3, 2, rng);
  const auto basis = TinyBasis(n, 2);
  RnnState state = cell.InitialState();
  for (int t = 0; t < 8; ++t) {
    ag::Variable x =
        ag::Variable::Leaf(Tensor::RandomNormal(n, n, 1.0, rng));
    state = cell.Step(basis, x, state);
    EXPECT_LE(state.h.value().AbsMax(), 1.0 + 1e-9);
  }
  EXPECT_EQ(state.h.rows(), n);
  EXPECT_EQ(state.h.cols(), 3);
}

TEST(GraphConvGruCellTest, GradientsFlow) {
  Rng rng(10);
  const int n = 3;
  GraphConvGruCell cell(n, 2, 2, rng);
  const auto basis = TinyBasis(n, 2);
  RnnState state = cell.InitialState();
  ag::Variable x = ag::Variable::Leaf(Tensor::RandomNormal(n, n, 1.0, rng));
  state = cell.Step(basis, x, state);
  ag::Sum(ag::Square(state.h)).Backward();
  for (const auto& [name, p] : cell.NamedParameters())
    EXPECT_FALSE(p.grad().empty()) << name;
}

/// The per-gate recording tape the cells ran before their recorded step
/// was fused: a copy of a cell's parameters as fresh leaves, with every
/// gate running its own ChebConv::Forward over X and h from ag ops. It is
/// the oracle for the fused step's hand-written backward.
class PerGateReference {
 public:
  PerGateReference(const Module& cell, int num_nodes, int hidden, int order) {
    Rng rng(99);
    for (const auto& [name, p] : cell.NamedParameters()) {
      const size_t dot = name.find('.');
      if (dot == std::string::npos) {
        leaves_[name] = ag::Variable::Leaf(p.value(), true);
        continue;
      }
      const std::string conv = name.substr(0, dot);
      if (convs_.count(conv) == 0) {
        const int in = conv.rfind("conv_x_", 0) == 0 ? num_nodes : hidden;
        convs_[conv] = std::make_unique<ChebConv>(in, hidden, order, rng,
                                                  /*with_bias=*/false);
      }
      for (auto& [sub, q] : convs_[conv]->NamedParameters())
        if (sub == name.substr(dot + 1)) q.mutable_value() = p.value();
    }
  }

  /// The reference's copy of the cell parameter called `name`.
  ag::Variable Param(const std::string& name) const {
    const size_t dot = name.find('.');
    if (dot == std::string::npos) return leaves_.at(name);
    for (const auto& [sub, q] : convs_.at(name.substr(0, dot))
                                    ->NamedParameters())
      if (sub == name.substr(dot + 1)) return q;
    return ag::Variable();
  }

  /// One LSTM step (Eq. 12-14) as per-gate ag ops.
  RnnState LstmStep(const std::vector<CsrMatrix>& basis,
                    const ag::Variable& x, const RnnState& prev) const {
    auto gate = [&](const std::string& g) {
      return ag::AddRowBroadcast(
          ag::Add(conv("conv_x_" + g).Forward(basis, x),
                  conv("conv_h_" + g).Forward(basis, prev.h)),
          leaf("b_" + g));
    };
    const ag::Variable i =
        ag::Sigmoid(ag::Add(gate("i"), ag::Mul(leaf("v_i"), prev.c)));
    const ag::Variable f =
        ag::Sigmoid(ag::Add(gate("f"), ag::Mul(leaf("v_f"), prev.c)));
    const ag::Variable g = ag::Tanh(gate("c"));
    RnnState next;
    next.c = ag::Add(ag::Mul(f, prev.c), ag::Mul(i, g));
    const ag::Variable o =
        ag::Sigmoid(ag::Add(gate("o"), ag::Mul(leaf("v_o"), next.c)));
    next.h = ag::Mul(o, ag::Tanh(next.c));
    return next;
  }

  /// One GRU step as per-gate ag ops.
  RnnState GruStep(const std::vector<CsrMatrix>& basis, const ag::Variable& x,
                   const RnnState& prev) const {
    auto gate = [&](const std::string& g, const ag::Variable& hidden_in) {
      return ag::AddRowBroadcast(
          ag::Add(conv("conv_x_" + g).Forward(basis, x),
                  conv("conv_h_" + g).Forward(basis, hidden_in)),
          leaf("b_" + g));
    };
    const ag::Variable r = ag::Sigmoid(gate("r", prev.h));
    const ag::Variable z = ag::Sigmoid(gate("z", prev.h));
    const ag::Variable cand = ag::Tanh(gate("n", ag::Mul(r, prev.h)));
    RnnState next;
    next.h = ag::Add(cand, ag::Mul(z, ag::Sub(prev.h, cand)));
    return next;
  }

  RnnState Step(const GraphConvLstmCell&, const std::vector<CsrMatrix>& basis,
                const ag::Variable& x, const RnnState& prev) const {
    return LstmStep(basis, x, prev);
  }
  RnnState Step(const GraphConvGruCell&, const std::vector<CsrMatrix>& basis,
                const ag::Variable& x, const RnnState& prev) const {
    return GruStep(basis, x, prev);
  }

 private:
  const ChebConv& conv(const std::string& name) const {
    return *convs_.at(name);
  }
  const ag::Variable& leaf(const std::string& name) const {
    return leaves_.at(name);
  }

  std::map<std::string, std::unique_ptr<ChebConv>> convs_;
  std::map<std::string, ag::Variable> leaves_;
};

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void ExpectGradsBitIdentical(const Module& cell, const PerGateReference& ref,
                             const std::string& where) {
  for (const auto& [name, p] : cell.NamedParameters()) {
    const ag::Variable q = ref.Param(name);
    ASSERT_TRUE(q.defined()) << where << " " << name;
    ASSERT_FALSE(p.grad().empty()) << where << " " << name;
    EXPECT_TRUE(SameBits(p.grad(), q.grad())) << where << " " << name;
  }
}

/// A basis shaped like an encoded cascade's: T_0 is the identity on the
/// first `active` rows, T_1 a random operator on the active block (with
/// some explicit zeros), and T_k the Chebyshev recursion, so every row from
/// `active` on is empty in every T_k.
std::vector<CsrMatrix> ActiveBasis(int n, int active, int order, Rng& rng) {
  std::vector<Triplet> op;
  for (int i = 0; i < active; ++i) {
    for (int j = 0; j < active; ++j) {
      const double u = rng.Uniform(0.0, 1.0);
      if (u < 0.1) {
        op.push_back({i, j, 0.0});
      } else if (i == j || u < 0.6) {
        op.push_back({i, j, rng.Uniform(-1.0, 1.0)});
      }
    }
  }
  return ChebyshevBasis(CsrMatrix::FromTriplets(n, n, op), order, active);
}

/// A snapshot sequence laid out as the encoder lays one out: one n x n
/// signal `x`, which step t reads in columns[t]. signals[t] is X_t: `x` on
/// those columns and zero elsewhere.
struct Snapshots {
  Tensor x;
  std::vector<ColumnRange> columns;
  std::vector<Tensor> signals;
};

/// `x` read in `columns`, with every step's X_t.
Snapshots ReadIn(Tensor x, std::vector<ColumnRange> columns) {
  Snapshots out{std::move(x), std::move(columns), {}};
  for (const ColumnRange& c : out.columns) {
    Tensor signal(out.x.rows(), out.x.cols());
    for (int i = 0; i < signal.rows(); ++i)
      for (int j = c.begin; j < c.end; ++j) signal.At(i, j) = out.x.At(i, j);
    out.signals.push_back(std::move(signal));
  }
  return out;
}

/// A snapshot-like n x n signal: values on the rows the active block
/// reads, about half of them exact zeros.
Tensor ActiveSignal(int n, int active, Rng& rng) {
  Tensor x(n, n);
  for (int i = 0; i < active; ++i)
    for (int j = 0; j < n; ++j)
      if (rng.Uniform(0.0, 1.0) < 0.5) x.At(i, j) = rng.Normal(0.0, 1.0);
  return x;
}

/// A snapshot-like sequence over one ActiveSignal. Step 0 reads every
/// column, as a dense signal does; later steps read random ranges starting
/// at column 0, 1 or 2, some of them empty.
Snapshots ActiveSnapshots(int n, int active, int steps, Rng& rng) {
  Tensor x = ActiveSignal(n, active, rng);
  std::vector<ColumnRange> columns = {{0, n}};
  while (static_cast<int>(columns.size()) < steps) {
    const int begin = std::min(n, static_cast<int>(rng.UniformInt(3)));
    columns.push_back(
        {begin, begin + static_cast<int>(rng.UniformInt(n - begin + 1))});
  }
  return ReadIn(std::move(x), std::move(columns));
}

/// The operator blocks T_k x stacked as the encoder stacks them: the dense
/// products with their exact zeros dropped, T_k x at row k n.
CsrMatrix SignalOperators(const std::vector<CsrMatrix>& basis,
                          const Tensor& x) {
  const int n = basis[0].rows();
  std::vector<Triplet> trips;
  int block = 0;
  for (const CsrMatrix& t : basis) {
    const Tensor p = t.MatMulDense(x);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        if (p.At(i, j) != 0.0) trips.push_back({block * n + i, j, p.At(i, j)});
    ++block;
  }
  return CsrMatrix::FromTriplets(block * n, n, std::move(trips));
}

SharedBasis Share(const std::vector<CsrMatrix>& basis) {
  return std::make_shared<const std::vector<CsrMatrix>>(basis);
}

/// Step t's operators: `ops` read in columns[t].
SnapshotOperators StepOperators(const CsrMatrix& ops,
                                const std::vector<ColumnRange>& columns,
                                size_t t) {
  return {std::make_shared<const CsrMatrix>(ops), columns[t]};
}

/// Random values for the parameters that are not filters (peepholes and
/// biases), so rows no T_k reaches leave the zero state.
void RandomizeRowLocal(Module& cell, Rng& rng) {
  for (auto& [name, p] : cell.NamedParameters()) {
    if (name.find('.') != std::string::npos) continue;
    p.mutable_value() =
        Tensor::RandomNormal(p.rows(), p.cols(), 0.7, rng);
  }
}

/// Every way the cells run the fused kernel against the per-gate tape on
/// the dense X_t of `snapshots`, from `init` (InitialState() when null):
/// Run (from the zero state only) and RunRecorded over the operator blocks
/// read in each step's columns, and the dense-signal Step recorded and
/// under NoGradGuard. Every h_t and c_t bit for bit.
template <typename Cell>
void ExpectFusedIsRecorded(const Cell& cell,
                           const std::vector<CsrMatrix>& basis,
                           const Snapshots& snapshots,
                           const std::string& where,
                           const RnnState* from = nullptr) {
  const RnnState init = from != nullptr ? *from : cell.InitialState();
  const PerGateReference ref(cell, cell.num_nodes(), cell.hidden_dim(),
                             cell.cheb_order());
  const std::vector<Tensor>& signals = snapshots.signals;
  const CsrMatrix ops = SignalOperators(basis, snapshots.x);
  std::vector<Tensor> run;
  if (from == nullptr) {
    run = cell.Run(basis, ops, snapshots.columns);
    ASSERT_EQ(run.size(), signals.size()) << where;
  }
  const std::vector<RnnState> sequence =
      cell.RunRecorded(Share(basis), std::make_shared<const CsrMatrix>(ops),
                       snapshots.columns, init);
  ASSERT_EQ(sequence.size(), signals.size()) << where;
  RnnState recorded = init, stepped = init, tape = init;
  for (size_t t = 0; t < signals.size(); ++t) {
    const std::string at = where + " step " + std::to_string(t);
    const ag::Variable x = ag::Variable::Leaf(signals[t]);
    recorded = cell.Step(basis, x, recorded);
    ASSERT_TRUE(recorded.h.needs_grad()) << at;
    {
      ag::NoGradGuard no_grad;
      stepped = cell.Step(basis, x, stepped);
    }
    ASSERT_FALSE(stepped.h.needs_grad()) << at;
    tape = ref.Step(cell, basis, x, tape);
    const Tensor& h = tape.h.value();
    EXPECT_TRUE(SameBits(recorded.h.value(), h)) << at << " recorded Step";
    EXPECT_TRUE(SameBits(stepped.h.value(), h)) << at << " Step";
    EXPECT_TRUE(SameBits(sequence[t].h.value(), h)) << at << " RunRecorded";
    if (!run.empty()) {
      EXPECT_TRUE(SameBits(run[t], h)) << at << " Run";
    }
    if (tape.c.defined()) {
      const Tensor& c = tape.c.value();
      EXPECT_TRUE(SameBits(recorded.c.value(), c)) << at << " recorded c";
      EXPECT_TRUE(SameBits(stepped.c.value(), c)) << at << " c";
      EXPECT_TRUE(SameBits(sequence[t].c.value(), c)) << at << " sequence c";
    }
  }
}

/// The dense-signal Step, recorded and under NoGradGuard, against the
/// per-gate tape over `steps` independent ActiveSignals: Step takes any
/// n x n X_t, not only column slices of one signal as the encoder's
/// snapshots are. Every h_t and c_t bit for bit.
template <typename Cell>
void ExpectDenseStepIsRecorded(const Cell& cell,
                               const std::vector<CsrMatrix>& basis,
                               int active, int steps, Rng& rng,
                               const std::string& where) {
  const PerGateReference ref(cell, cell.num_nodes(), cell.hidden_dim(),
                             cell.cheb_order());
  RnnState recorded = cell.InitialState(), stepped = recorded, tape = recorded;
  for (int t = 0; t < steps; ++t) {
    const std::string at = where + " dense step " + std::to_string(t);
    const ag::Variable x =
        ag::Variable::Leaf(ActiveSignal(cell.num_nodes(), active, rng));
    recorded = cell.Step(basis, x, recorded);
    {
      ag::NoGradGuard no_grad;
      stepped = cell.Step(basis, x, stepped);
    }
    tape = ref.Step(cell, basis, x, tape);
    EXPECT_TRUE(SameBits(recorded.h.value(), tape.h.value())) << at;
    EXPECT_TRUE(SameBits(stepped.h.value(), tape.h.value())) << at;
    if (tape.c.defined()) {
      EXPECT_TRUE(SameBits(recorded.c.value(), tape.c.value())) << at;
      EXPECT_TRUE(SameBits(stepped.c.value(), tape.c.value())) << at;
    }
  }
}

/// Every order K in 1..3, hidden widths whose gate blocks (LSTM 4d, GRU d,
/// 2d and 3d, and the X side) run every mix of the kernel's 16-, 8-, 4- and
/// 1-column tiles (d = 4: 4d = 16; d = 6: 4d = 24 = 16 + 8; d = 7: 4d = 28 =
/// 16 + 8 + 4, 3d = 21 = 16 + 4 + 1), and every number of reached rows
/// from 1 to n (n itself leaves no padding row), with sequence lengths that
/// grow and shrink so the padding table deepens and is reused. Then the
/// production shape: n = 32, d = 12, K = 2.
template <typename Cell>
void ExpectFusedIsRecordedOverShapes(uint64_t seed) {
  const int n = 7;
  for (const int hidden : {1, 2, 3, 4, 5, 6, 7, 12}) {
    for (int order = 1; order <= 3; ++order) {
      Rng rng(seed + 10 * hidden + order);
      Cell cell(n, hidden, order, rng);
      RandomizeRowLocal(cell, rng);
      for (int active = 1; active <= n; ++active) {
        const int steps = 1 + (active * 3) % 7;
        const auto basis = ActiveBasis(n, active, order, rng);
        const std::string where = "d=" + std::to_string(hidden) +
                                  " K=" + std::to_string(order) +
                                  " active=" + std::to_string(active);
        ExpectFusedIsRecorded(cell, basis,
                              ActiveSnapshots(n, active, steps, rng), where);
        ExpectDenseStepIsRecorded(cell, basis, active, steps, rng, where);
      }
    }
  }
  Rng rng(seed);
  Cell cell(32, 12, 2, rng);
  RandomizeRowLocal(cell, rng);
  for (const int active : {3, 17, 32}) {
    ExpectFusedIsRecorded(cell, ActiveBasis(32, active, 2, rng),
                          ActiveSnapshots(32, active, 6, rng),
                          "n=32 d=12 K=2 active=" + std::to_string(active));
  }
}

/// The cell parameter called `name`.
ag::Variable Param(const Module& cell, const std::string& name) {
  for (const auto& [param_name, p] : cell.NamedParameters())
    if (param_name == name) return p;
  ADD_FAILURE() << "no parameter " << name;
  return ag::Variable();
}

/// Hidden unit `unit` stays exactly 0.0 at every step, while row `unit` of
/// every h-side filter W_k holds +inf. The tape's products skip the zero
/// entries of T_k h (and of T_k (r (.) h)), which are the only entries that
/// reach that row, so every value stays finite; a kernel that multiplied a
/// skipped zero by inf would produce NaN. The unit stays zero because its
/// candidate (LSTM g, GRU n) has zero filters into it and a zero bias.
/// With d = 12 the candidate's column of the LSTM's 4d block and of the
/// GRU's X-side 3d block is 2d + unit = 26, in the second half of the
/// 16-column tile [16, 32).
template <typename Cell>
void ExpectSkippedZerosMeetInfiniteFilters(const std::string& candidate,
                                           const std::vector<std::string>&
                                               gates,
                                           uint64_t seed) {
  const int n = 9, hidden = 12, order = 2, unit = 2, active = 6;
  Rng rng(seed);
  Cell cell(n, hidden, order, rng);
  RandomizeRowLocal(cell, rng);
  Param(cell, "b_" + candidate).mutable_value().At(0, unit) = 0.0;
  for (int k = 0; k < order; ++k) {
    const std::string w = ".w" + std::to_string(k);
    for (const char* side : {"conv_x_", "conv_h_"}) {
      Tensor& into =
          Param(cell, side + candidate + w).mutable_value();
      for (int q = 0; q < into.rows(); ++q) into.At(q, unit) = 0.0;
    }
    for (const std::string& gate : gates) {
      Tensor& filter = Param(cell, "conv_h_" + gate + w).mutable_value();
      for (int j = 0; j < hidden; ++j)
        filter.At(unit, j) = std::numeric_limits<double>::infinity();
    }
  }
  const std::vector<CsrMatrix> basis = ActiveBasis(n, active, order, rng);
  const Snapshots snapshots = ActiveSnapshots(n, active, 5, rng);
  ExpectFusedIsRecorded(cell, basis, snapshots, "inf filter rows");
  const std::vector<Tensor> run = cell.Run(
      basis, SignalOperators(basis, snapshots.x), snapshots.columns);
  for (const Tensor& h : run)
    for (int e = 0; e < h.size(); ++e)
      ASSERT_TRUE(std::isfinite(h.data()[e])) << "h is not finite";
}

/// Sums that start at +0.0, as the tape's zero-filled products do: from a
/// state whose h and c hold -0.0, over nonnegative signals with T_0 = I
/// (K = 1), with -0.0 in the LSTM candidate's X and h filter column `unit`
/// and bias. Every product into that column is then -0.0, the tape's sum is
/// +0.0 and c_t stays +0.0 there; a sum that started at its first product
/// would be -0.0, and so would c_t. With d = 5 that column, 2d + unit = 12
/// of the 4d = 20 block, is in the second half of the 16-column tile.
void ExpectSumsStartAtPositiveZero(uint64_t seed) {
  const int n = 6, hidden = 5, unit = 2, active = 5;
  Rng rng(seed);
  GraphConvLstmCell cell(n, hidden, 1, rng);
  RandomizeRowLocal(cell, rng);
  Param(cell, "b_c").mutable_value().At(0, unit) = -0.0;
  for (const char* side : {"conv_x_c.w0", "conv_h_c.w0"}) {
    Tensor& into = Param(cell, side).mutable_value();
    for (int q = 0; q < into.rows(); ++q) into.At(q, unit) = -0.0;
  }
  Snapshots snapshots = ActiveSnapshots(n, active, 3, rng);
  Tensor x = snapshots.x;
  for (int e = 0; e < x.size(); ++e)
    x.data()[e] = x.data()[e] != 0.0 ? 1.0 : 0.0;
  snapshots = ReadIn(std::move(x), snapshots.columns);
  RnnState init;
  Tensor h(n, hidden), c(n, hidden);
  for (int e = 0; e < h.size(); ++e) {
    h.data()[e] = e % 2 == 0 ? -0.0 : 0.25 + 0.1 * e;
    c.data()[e] = -0.0;
  }
  init.h = ag::Variable::Leaf(h);
  init.c = ag::Variable::Leaf(c);
  ExpectFusedIsRecorded(cell, ActiveBasis(n, active, 1, rng), snapshots,
                        "-0.0 in h and c", &init);
}

TEST(GraphConvLstmCellTest, FusedKernelIsTheRecordedStepBitForBit) {
  ExpectFusedIsRecordedOverShapes<GraphConvLstmCell>(40);
  ExpectSkippedZerosMeetInfiniteFilters<GraphConvLstmCell>(
      "c", {"i", "f", "c", "o"}, 41);
  ExpectSumsStartAtPositiveZero(42);
}

TEST(GraphConvGruCellTest, FusedKernelIsTheRecordedStepBitForBit) {
  ExpectFusedIsRecordedOverShapes<GraphConvGruCell>(50);
  ExpectSkippedZerosMeetInfiniteFilters<GraphConvGruCell>(
      "n", {"r", "z", "n"}, 51);
}

/// The padding table must follow every way the row-local parameters change:
/// a direct edit that touches only an unreached row, an optimizer step, and
/// loading other weights into the live cell.
template <typename Cell>
void ExpectPaddingTableFollowsParameters(const std::string& edited,
                                         uint64_t seed) {
  const int n = 6, hidden = 3, order = 2, active = 2;
  Rng rng(seed);
  Cell cell(n, hidden, order, rng);
  RandomizeRowLocal(cell, rng);
  const auto basis = ActiveBasis(n, active, order, rng);
  const Snapshots snapshots = ActiveSnapshots(n, active, 4, rng);
  ExpectFusedIsRecorded(cell, basis, snapshots, "initial");

  ag::Variable param;
  for (auto& [name, p] : cell.NamedParameters())
    if (name == edited) param = p;
  ASSERT_TRUE(param.defined()) << edited;
  param.mutable_value().At(param.rows() - 1, 0) += 0.5;
  ExpectFusedIsRecorded(cell, basis, snapshots, "after editing " + edited);

  RnnState state = cell.InitialState();
  for (const Tensor& x : snapshots.signals)
    state = cell.Step(basis, ag::Variable::Leaf(x), state);
  ag::Sum(ag::Square(state.h)).Backward();
  Adam::Options options;
  options.learning_rate = 0.1;
  Adam adam(cell.Parameters(), options);
  adam.Step();
  ExpectFusedIsRecorded(cell, basis, snapshots, "after an Adam step");

  Rng other_rng(seed + 1);
  Cell other(n, hidden, order, other_rng);
  RandomizeRowLocal(other, other_rng);
  FrameWriter weights;
  other.Save(weights);
  FrameReader in(weights.bytes());
  ASSERT_TRUE(cell.Load(in).ok());
  ExpectFusedIsRecorded(cell, basis, snapshots, "after Load");
}

TEST(GraphConvLstmCellTest, PaddingTableFollowsParameterChanges) {
  ExpectPaddingTableFollowsParameters<GraphConvLstmCell>("v_i", 60);
}

TEST(GraphConvGruCellTest, PaddingTableFollowsParameterChanges) {
  ExpectPaddingTableFollowsParameters<GraphConvGruCell>("b_n", 70);
}

/// What the loss of an oracle case reads.
enum class Readout {
  kEveryStep,        // a decay-pooling-like weighted sum of every h_t
  kLastStep,         // h_T alone
  kLastStepAndCell,  // h_T, then c_T (LSTM only)
};

std::string ReadoutName(Readout readout) {
  switch (readout) {
    case Readout::kEveryStep: return "every h_t";
    case Readout::kLastStep: return "last h_t";
    case Readout::kLastStepAndCell: return "last h_t and c_t";
  }
  return "";
}

ag::Variable Loss(const std::vector<RnnState>& states, Readout readout) {
  if (readout == Readout::kEveryStep) {
    ag::Variable sum;
    for (size_t t = 0; t < states.size(); ++t) {
      const ag::Variable h = ag::ScalarMul(states[t].h, 1.0 / (t + 1.0));
      sum = sum.defined() ? ag::Add(sum, h) : h;
    }
    return ag::Sum(ag::Square(sum));
  }
  const ag::Variable last = ag::Sum(ag::Square(states.back().h));
  if (readout == Readout::kLastStep) return last;
  return ag::Add(last, ag::Sum(states.back().c));
}

/// A state of random values; with `needs_grad`, leaves that take a
/// gradient.
RnnState RandomState(const RnnState& shape, bool needs_grad, Rng& rng) {
  RnnState s;
  auto random = [&](const ag::Variable& v) {
    return ag::Variable::Leaf(
        Tensor::RandomNormal(v.rows(), v.cols(), 0.5, rng), needs_grad);
  };
  s.h = random(shape.h);
  if (shape.c.defined()) s.c = random(shape.c);
  return s;
}

/// Runs a snapshot sequence through the cell's recorded Step, over the
/// snapshots' operators `ops`, and through the per-gate tape, over the
/// dense `signals`, from equal initial states; backpropagates the same loss
/// through both, and expects every parameter gradient, h_T, and (when the
/// initial state takes one) dh_0 and dc_0 to be bit-identical.
template <typename Cell>
void ExpectRecordedStepIsPerGateTape(const Cell& cell,
                                     const std::vector<CsrMatrix>& basis,
                                     const CsrMatrix& ops,
                                     const std::vector<ColumnRange>& columns,
                                     const std::vector<Tensor>& signals,
                                     Readout readout, bool prev_needs_grad,
                                     const std::string& where) {
  const PerGateReference ref(cell, cell.num_nodes(), cell.hidden_dim(),
                             cell.cheb_order());
  Rng rng(7);
  RnnState init = cell.InitialState();
  if (prev_needs_grad) init = RandomState(init, true, rng);
  RnnState ref_init;
  ref_init.h = ag::Variable::Leaf(init.h.value(), prev_needs_grad);
  if (init.c.defined())
    ref_init.c = ag::Variable::Leaf(init.c.value(), prev_needs_grad);

  ASSERT_EQ(columns.size(), signals.size()) << where;
  const SharedBasis shared_basis = Share(basis);
  std::vector<RnnState> states, ref_states;
  RnnState state = init, ref_state = ref_init;
  for (size_t t = 0; t < signals.size(); ++t) {
    state = cell.Step(shared_basis, StepOperators(ops, columns, t), state);
    ref_state =
        ref.Step(cell, basis, ag::Variable::Leaf(signals[t]), ref_state);
    states.push_back(state);
    ref_states.push_back(ref_state);
  }
  ASSERT_TRUE(SameBits(state.h.value(), ref_state.h.value())) << where;
  Loss(states, readout).Backward();
  Loss(ref_states, readout).Backward();
  ExpectGradsBitIdentical(cell, ref, where);
  if (prev_needs_grad) {
    EXPECT_TRUE(SameBits(init.h.grad(), ref_init.h.grad())) << where << " dh_0";
    if (init.c.defined()) {
      EXPECT_TRUE(SameBits(init.c.grad(), ref_init.c.grad()))
          << where << " dc_0";
    }
  }
}

/// Encoder bases and snapshot operators of seeded generator cascades cut
/// to 1, 2 and 10 nodes and to the padded size, against the per-gate tape
/// over the encoder's dense signals, for K = 1..3, under every readout,
/// from the zero state and from a state that takes a gradient.
template <typename Cell>
void ExpectRecordedStepIsPerGateTapeOverEncodings(
    const std::vector<Readout>& readouts, uint64_t seed) {
  CascnConfig config = testing::TinyCascnConfig();
  config.hidden_dim = 4;
  const CascadeDataset dataset = testing::TinyDataset();
  const CascadeSample* source = nullptr;
  for (const CascadeSample& sample : dataset.train)
    if (sample.observed.size() >= config.padded_size) source = &sample;
  ASSERT_NE(source, nullptr);
  for (int order = 1; order <= 3; ++order) {
    config.cheb_order = order;
    Rng rng(seed + order);
    Cell cell(config.padded_size, config.hidden_dim, order, rng);
    RandomizeRowLocal(cell, rng);
    for (const int size : {1, 2, 10, config.padded_size}) {
      CascadeSample sample = *source;
      sample.observed = source->observed.PrefixBySize(size);
      const Result<EncodedCascade> enc = EncodeCascade(sample, config);
      ASSERT_TRUE(enc.ok()) << enc.status();
      for (const Readout readout : readouts) {
        for (const bool prev_needs_grad : {false, true}) {
          cell.ZeroGrad();
          ExpectRecordedStepIsPerGateTape(
              cell, enc.value().cheb_basis, enc.value().snapshot_ops,
              enc.value().snapshot_columns, enc.value().snapshot_signals,
              readout, prev_needs_grad,
              "K=" + std::to_string(order) + " size=" +
                  std::to_string(size) + " loss on " + ReadoutName(readout) +
                  (prev_needs_grad ? ", h_0 takes a gradient" : ""));
        }
      }
    }
  }
}

TEST(GraphConvLstmCellTest, RecordedStepIsThePerGateTapeBitForBit) {
  ExpectRecordedStepIsPerGateTapeOverEncodings<GraphConvLstmCell>(
      {Readout::kEveryStep, Readout::kLastStep, Readout::kLastStepAndCell},
      80);
}

TEST(GraphConvGruCellTest, RecordedStepIsThePerGateTapeBitForBit) {
  ExpectRecordedStepIsPerGateTapeOverEncodings<GraphConvGruCell>(
      {Readout::kEveryStep, Readout::kLastStep}, 90);
}

/// What a RunRecorded case starts from.
enum class Start {
  kZero,            // InitialState(): padding rows from the table
  kZeroTakesGrad,   // zero leaves that take a gradient: the table, and dh_0
  kRandomTakesGrad  // a random state: every row through the kernel
};

/// A loss that pools the per-step node sums with softmax attention, as
/// CascnModel's attention-pooling extension does, with fixed weights.
ag::Variable AttentionLoss(const std::vector<RnnState>& states) {
  const int hidden = states[0].h.cols();
  Rng rng(5);
  const ag::Variable w =
      ag::Variable::Leaf(Tensor::RandomNormal(hidden, hidden, 0.5, rng));
  const ag::Variable v =
      ag::Variable::Leaf(Tensor::RandomNormal(hidden, 1, 0.5, rng));
  std::vector<ag::Variable> per_step;
  for (const RnnState& s : states) per_step.push_back(ag::SumRows(s.h));
  const ag::Variable stacked = ag::ConcatRows(per_step);
  const ag::Variable scores = ag::MatMul(ag::Tanh(ag::MatMul(stacked, w)), v);
  const ag::Variable attention = ag::SoftmaxRows(ag::Transpose(scores));
  return ag::Sum(ag::Square(ag::MatMul(attention, stacked)));
}

/// Everything a recorded run yields: every state, and after the loss's
/// Backward() every parameter gradient, then dh_0 and dc_0 when the start
/// takes a gradient.
struct RecordedOutcome {
  std::vector<RnnState> states;
  std::vector<Tensor> grads;
};

/// RunRecorded and a Step loop over the same snapshot operators, and the
/// per-gate tape over the dense `signals`, from equal starts, each
/// backpropagating `loss`: every h_t and c_t, every parameter gradient,
/// dh_0 and dc_0 bit for bit.
template <typename Cell, typename Loss>
void ExpectRunRecordedIsStepLoop(Cell& cell,
                                 const std::vector<CsrMatrix>& basis,
                                 const CsrMatrix& ops,
                                 const std::vector<ColumnRange>& columns,
                                 const std::vector<Tensor>& signals,
                                 Start start, Loss&& loss,
                                 const std::string& where) {
  const SharedBasis shared_basis = Share(basis);
  const auto stack = std::make_shared<const CsrMatrix>(ops);
  const int order = cell.cheb_order();
  const size_t depth = columns.size();
  ASSERT_EQ(signals.size(), depth) << where;
  enum class Path { kStepLoop, kSequence, kTape };
  auto run = [&](Path path) {
    cell.ZeroGrad();
    RnnState init = cell.InitialState();
    if (start == Start::kZeroTakesGrad) {
      init.h = ag::Variable::Leaf(init.h.value(), true);
      if (init.c.defined()) init.c = ag::Variable::Leaf(init.c.value(), true);
    } else if (start == Start::kRandomTakesGrad) {
      Rng rng(13);
      init = RandomState(init, true, rng);
    }
    const PerGateReference ref(cell, cell.num_nodes(), cell.hidden_dim(),
                               order);
    RecordedOutcome out;
    if (path == Path::kSequence) {
      out.states = cell.RunRecorded(shared_basis, stack, columns, init);
    } else {
      RnnState state = init;
      for (size_t t = 0; t < depth; ++t) {
        state = path == Path::kTape
                    ? ref.Step(cell, basis, ag::Variable::Leaf(signals[t]),
                               state)
                    : cell.Step(shared_basis, StepOperators(ops, columns, t),
                                state);
        out.states.push_back(state);
      }
    }
    loss(out.states).Backward();
    for (const auto& [name, p] : cell.NamedParameters())
      out.grads.push_back(path == Path::kTape ? ref.Param(name).grad()
                                              : p.grad());
    if (start != Start::kZero) {
      out.grads.push_back(init.h.grad());
      if (init.c.defined()) out.grads.push_back(init.c.grad());
    }
    return out;
  };
  const RecordedOutcome tape = run(Path::kTape);
  for (const Path path : {Path::kStepLoop, Path::kSequence}) {
    const RecordedOutcome out = run(path);
    const std::string what =
        where + (path == Path::kSequence ? " RunRecorded" : " Step loop");
    ASSERT_EQ(out.states.size(), depth) << what;
    for (size_t t = 0; t < depth; ++t) {
      ASSERT_TRUE(out.states[t].h.needs_grad()) << what;
      EXPECT_TRUE(
          SameBits(out.states[t].h.value(), tape.states[t].h.value()))
          << what << " h at step " << t;
      if (tape.states[t].c.defined()) {
        EXPECT_TRUE(
            SameBits(out.states[t].c.value(), tape.states[t].c.value()))
            << what << " c at step " << t;
      }
    }
    ASSERT_EQ(out.grads.size(), tape.grads.size()) << what;
    for (size_t i = 0; i < tape.grads.size(); ++i) {
      ASSERT_FALSE(tape.grads[i].empty()) << what << " gradient " << i;
      EXPECT_TRUE(SameBits(out.grads[i], tape.grads[i]))
          << what << " gradient " << i;
    }
  }
}

/// Encoder bases and snapshot operators of a generator cascade cut to 1, 2,
/// 10 and 12 nodes and to the padded size (16, so no padding row), for
/// hidden widths 1, 2, 4, 5, 6, 7 and 12 (every mix of the kernel's 16-, 8-,
/// 4- and 1-column tiles) and K = 1..3, and of cascades cut to 3, 17
/// and 32 nodes in the production shape (padded size 32, d = 12, K = 2);
/// with losses reading every h_t, only h_T, and attention pooling, from
/// every Start.
template <typename Cell>
void ExpectRunRecordedIsStepLoopOverEncodings(uint64_t seed) {
  const CascadeDataset dataset = testing::TinyDataset();
  const std::pair<std::string, std::function<ag::Variable(
                                   const std::vector<RnnState>&)>>
      losses[] = {
          {"every h_t",
           [](const std::vector<RnnState>& s) {
             return Loss(s, Readout::kEveryStep);
           }},
          {"last h_t",
           [](const std::vector<RnnState>& s) {
             return Loss(s, Readout::kLastStep);
           }},
          {"attention", AttentionLoss},
      };
  auto check = [&](const CascnConfig& config, const std::vector<int>& sizes,
                   Rng& rng) {
    const CascadeSample* source = nullptr;
    for (const CascadeSample& sample : dataset.train)
      if (sample.observed.size() >= config.padded_size) source = &sample;
    ASSERT_NE(source, nullptr);
    Cell cell(config.padded_size, config.hidden_dim, config.cheb_order, rng);
    RandomizeRowLocal(cell, rng);
    for (const int size : sizes) {
      CascadeSample sample = *source;
      sample.observed = source->observed.PrefixBySize(size);
      const Result<EncodedCascade> enc = EncodeCascade(sample, config);
      ASSERT_TRUE(enc.ok()) << enc.status();
      for (const auto& [loss_name, loss] : losses) {
        for (const Start start :
             {Start::kZero, Start::kZeroTakesGrad, Start::kRandomTakesGrad}) {
          ExpectRunRecordedIsStepLoop(
              cell, enc.value().cheb_basis, enc.value().snapshot_ops,
              enc.value().snapshot_columns, enc.value().snapshot_signals,
              start, loss,
              "n=" + std::to_string(config.padded_size) +
                  " d=" + std::to_string(config.hidden_dim) +
                  " K=" + std::to_string(config.cheb_order) +
                  " size=" + std::to_string(size) + " loss on " + loss_name +
                  " start " + std::to_string(static_cast<int>(start)));
        }
      }
    }
  };
  CascnConfig config = testing::TinyCascnConfig();
  config.padded_size = 16;
  for (const int hidden : {1, 2, 4, 5, 6, 7, 12}) {
    config.hidden_dim = hidden;
    for (int order = 1; order <= 3; ++order) {
      config.cheb_order = order;
      Rng rng(seed + 10 * hidden + order);
      check(config, {1, 2, 10, 12, config.padded_size}, rng);
    }
  }
  config.padded_size = 32;
  config.hidden_dim = 12;
  config.cheb_order = 2;
  Rng rng(seed);
  check(config, {3, 17, 32}, rng);
}

TEST(GraphConvLstmCellTest, RunRecordedIsTheStepLoopBitForBit) {
  ExpectRunRecordedIsStepLoopOverEncodings<GraphConvLstmCell>(120);
}

TEST(GraphConvGruCellTest, RunRecordedIsTheStepLoopBitForBit) {
  ExpectRunRecordedIsStepLoopOverEncodings<GraphConvGruCell>(130);
}

/// The dense-signal Step against the operator Step over the same snapshots,
/// recorded from a state that takes a gradient: every h_t and c_t, every
/// parameter gradient, dh_0 and dc_0 bit for bit. In the first snapshot an
/// entry of T_1 X cancels to exactly 0.0, which the operators drop and the
/// dense products skip.
template <typename Cell>
void ExpectSignalStepIsOperatorStep(uint64_t seed) {
  const int n = 5, hidden = 3, order = 3;
  Rng rng(seed);
  Cell cell(n, hidden, order, rng);
  RandomizeRowLocal(cell, rng);
  const std::vector<CsrMatrix> basis = TinyBasis(n, order);
  Snapshots snapshots = ActiveSnapshots(n, n, 4, rng);
  // Row 1 of T_1 is (0.25, -0.5, 0.25, 0, 0). Step 0 reads column 0.
  Tensor x = snapshots.x;
  x.At(0, 0) = 2.0;
  x.At(1, 0) = 1.0;
  x.At(2, 0) = 0.0;
  snapshots = ReadIn(std::move(x), snapshots.columns);
  const std::vector<Tensor>& signals = snapshots.signals;
  ASSERT_EQ(basis[1].MatMulDense(signals[0]).At(1, 0), 0.0);
  const CsrMatrix ops = SignalOperators(basis, snapshots.x);

  struct Outcome {
    std::vector<RnnState> states;
    std::vector<Tensor> grads;  // every parameter's, then dh_0 and dc_0
  };
  auto run = [&](bool dense) {
    cell.ZeroGrad();
    Rng state_rng(3);
    const RnnState init = RandomState(cell.InitialState(), true, state_rng);
    Outcome out;
    RnnState state = init;
    for (size_t t = 0; t < signals.size(); ++t) {
      state = dense ? cell.Step(basis, ag::Variable::Leaf(signals[t]), state)
                    : cell.Step(Share(basis),
                                StepOperators(ops, snapshots.columns, t),
                                state);
      out.states.push_back(state);
    }
    Loss(out.states, Readout::kEveryStep).Backward();
    for (const ag::Variable& p : cell.Parameters())
      out.grads.push_back(p.grad());
    out.grads.push_back(init.h.grad());
    if (init.c.defined()) out.grads.push_back(init.c.grad());
    return out;
  };
  const Outcome dense = run(true);
  const Outcome sparse = run(false);
  for (size_t t = 0; t < signals.size(); ++t) {
    EXPECT_TRUE(SameBits(dense.states[t].h.value(), sparse.states[t].h.value()))
        << "h at step " << t;
    if (dense.states[t].c.defined()) {
      EXPECT_TRUE(
          SameBits(dense.states[t].c.value(), sparse.states[t].c.value()))
          << "c at step " << t;
    }
  }
  ASSERT_EQ(dense.grads.size(), sparse.grads.size());
  for (size_t i = 0; i < dense.grads.size(); ++i) {
    ASSERT_FALSE(dense.grads[i].empty()) << "gradient " << i;
    EXPECT_TRUE(SameBits(dense.grads[i], sparse.grads[i])) << "gradient " << i;
  }
}

TEST(GraphConvLstmCellTest, SignalStepIsTheOperatorStepBitForBit) {
  ExpectSignalStepIsOperatorStep<GraphConvLstmCell>(100);
}

TEST(GraphConvGruCellTest, SignalStepIsTheOperatorStepBitForBit) {
  ExpectSignalStepIsOperatorStep<GraphConvGruCell>(110);
}

TEST(GraphConvCellsTest, SignalThatNeedsAGradientDies) {
  Rng rng(12);
  GraphConvLstmCell lstm(4, 2, 2, rng);
  GraphConvGruCell gru(4, 2, 2, rng);
  const auto basis = TinyBasis(4, 2);
  const ag::Variable x = ag::Variable::Leaf(Tensor(4, 4), true);
  EXPECT_DEATH(lstm.Step(basis, x, lstm.InitialState()), "need no gradient");
  EXPECT_DEATH(gru.Step(basis, x, gru.InitialState()), "need no gradient");
}

TEST(GraphConvCellsTest, WrongSignalShapeDies) {
  Rng rng(11);
  GraphConvLstmCell cell(4, 2, 2, rng);
  const auto basis = TinyBasis(4, 2);
  ag::Variable bad = ag::Variable::Leaf(Tensor(3, 4));
  EXPECT_DEATH(cell.Step(basis, bad, cell.InitialState()), "n x n");
}

}  // namespace
}  // namespace cascn::nn

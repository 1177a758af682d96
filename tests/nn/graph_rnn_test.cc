#include "nn/graph_rnn_cells.h"

#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/cheb_conv.h"
#include "nn/optimizer.h"
#include "tensor/grad_check.h"

namespace cascn::nn {
namespace {

/// A tiny 3-node Chebyshev basis {I, L} for testing.
std::vector<CsrMatrix> TinyBasis(int n, int order) {
  std::vector<CsrMatrix> basis;
  basis.push_back(CsrMatrix::Identity(n));
  if (order >= 2) {
    // A symmetric "scaled Laplacian"-like operator.
    std::vector<Triplet> trips;
    for (int i = 0; i < n; ++i) trips.push_back({i, i, -0.5});
    for (int i = 0; i + 1 < n; ++i) {
      trips.push_back({i, i + 1, 0.25});
      trips.push_back({i + 1, i, 0.25});
    }
    basis.push_back(CsrMatrix::FromTriplets(n, n, trips));
  }
  for (int k = 2; k < order; ++k) {
    basis.push_back(basis[k - 1]
                        .MatMulSparse(basis[1])
                        .Scaled(2.0)
                        .Add(basis[k - 2], 1.0, -1.0));
  }
  return basis;
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

/// Per-gate reference for a graph-convolutional cell: a copy of the cell's
/// parameters as fresh leaves, with every gate running its own
/// ChebConv::Forward over X and h, as the cells did before a step shared
/// its propagations.
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

  const ChebConv& conv(const std::string& name) const {
    return *convs_.at(name);
  }
  const ag::Variable& leaf(const std::string& name) const {
    return leaves_.at(name);
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

 private:
  std::map<std::string, std::unique_ptr<ChebConv>> convs_;
  std::map<std::string, ag::Variable> leaves_;
};

void ExpectGradsBitIdentical(const Module& cell, const PerGateReference& ref) {
  for (const auto& [name, p] : cell.NamedParameters()) {
    const ag::Variable q = ref.Param(name);
    ASSERT_TRUE(q.defined()) << name;
    ASSERT_FALSE(p.grad().empty()) << name;
    ASSERT_TRUE(p.grad().SameShape(q.grad())) << name;
    EXPECT_EQ(std::memcmp(p.grad().data(), q.grad().data(),
                          p.grad().size() * sizeof(double)),
              0)
        << name;
  }
}

TEST(GraphConvLstmCellTest, SharedPropagationKeepsEveryGradientBit) {
  Rng rng(21);
  const int n = 5, hidden = 3, order = 3;
  GraphConvLstmCell cell(n, hidden, order, rng);
  const PerGateReference ref(cell, n, hidden, order);
  const auto basis = TinyBasis(n, order);
  std::vector<ag::Variable> xs;
  for (int t = 0; t < 3; ++t)
    xs.push_back(ag::Variable::Leaf(Tensor::RandomNormal(n, n, 1.0, rng)));

  RnnState state = cell.InitialState();
  for (const auto& x : xs) state = cell.Step(basis, x, state);
  ag::Add(ag::Sum(ag::Square(state.h)), ag::Sum(state.c)).Backward();

  RnnState r = cell.InitialState();
  for (const auto& x : xs) {
    auto gate = [&](const std::string& g) {
      return ag::AddRowBroadcast(
          ag::Add(ref.conv("conv_x_" + g).Forward(basis, x),
                  ref.conv("conv_h_" + g).Forward(basis, r.h)),
          ref.leaf("b_" + g));
    };
    const ag::Variable i =
        ag::Sigmoid(ag::Add(gate("i"), ag::Mul(ref.leaf("v_i"), r.c)));
    const ag::Variable f =
        ag::Sigmoid(ag::Add(gate("f"), ag::Mul(ref.leaf("v_f"), r.c)));
    const ag::Variable g = ag::Tanh(gate("c"));
    RnnState next;
    next.c = ag::Add(ag::Mul(f, r.c), ag::Mul(i, g));
    const ag::Variable o =
        ag::Sigmoid(ag::Add(gate("o"), ag::Mul(ref.leaf("v_o"), next.c)));
    next.h = ag::Mul(o, ag::Tanh(next.c));
    r = next;
  }
  ag::Add(ag::Sum(ag::Square(r.h)), ag::Sum(r.c)).Backward();
  ExpectGradsBitIdentical(cell, ref);
}

TEST(GraphConvGruCellTest, SharedPropagationKeepsEveryGradientBit) {
  Rng rng(22);
  const int n = 5, hidden = 3, order = 3;
  GraphConvGruCell cell(n, hidden, order, rng);
  const PerGateReference ref(cell, n, hidden, order);
  const auto basis = TinyBasis(n, order);
  std::vector<ag::Variable> xs;
  for (int t = 0; t < 3; ++t)
    xs.push_back(ag::Variable::Leaf(Tensor::RandomNormal(n, n, 1.0, rng)));

  RnnState state = cell.InitialState();
  for (const auto& x : xs) state = cell.Step(basis, x, state);
  ag::Sum(ag::Square(state.h)).Backward();

  ag::Variable h = cell.InitialState().h;
  for (const auto& x : xs) {
    auto gate = [&](const std::string& g, const ag::Variable& hidden_in) {
      return ag::AddRowBroadcast(
          ag::Add(ref.conv("conv_x_" + g).Forward(basis, x),
                  ref.conv("conv_h_" + g).Forward(basis, hidden_in)),
          ref.leaf("b_" + g));
    };
    const ag::Variable r = ag::Sigmoid(gate("r", h));
    const ag::Variable z = ag::Sigmoid(gate("z", h));
    const ag::Variable cand = ag::Tanh(gate("n", ag::Mul(r, h)));
    h = ag::Add(cand, ag::Mul(z, ag::Sub(h, cand)));
  }
  ag::Sum(ag::Square(h)).Backward();
  ExpectGradsBitIdentical(cell, ref);
}

TEST(ChebConvTest, ApplyOfPropagateIsForward) {
  Rng rng(23);
  const int n = 4;
  ChebConv conv(n, 3, /*k=*/3, rng);
  const auto basis = TinyBasis(n, 3);
  const ag::Variable x =
      ag::Variable::Leaf(Tensor::RandomNormal(n, n, 1.0, rng));
  const Tensor direct = conv.Forward(basis, x).value();
  const Tensor split = conv.Apply(ChebConv::Propagate(basis, x)).value();
  ASSERT_TRUE(direct.SameShape(split));
  EXPECT_EQ(std::memcmp(direct.data(), split.data(),
                        direct.size() * sizeof(double)),
            0);
}

/// A basis shaped like an encoded cascade's: T_0 is the identity on the
/// first `active` rows, T_1 a random operator on the active block (with
/// some explicit zeros), and T_k the Chebyshev recursion, so every row from
/// `active` on is empty in every T_k.
std::vector<CsrMatrix> ActiveBasis(int n, int active, int order, Rng& rng) {
  std::vector<Triplet> eye, op;
  for (int i = 0; i < active; ++i) {
    eye.push_back({i, i, 1.0});
    for (int j = 0; j < active; ++j) {
      const double u = rng.Uniform(0.0, 1.0);
      if (u < 0.1) {
        op.push_back({i, j, 0.0});
      } else if (i == j || u < 0.6) {
        op.push_back({i, j, rng.Uniform(-1.0, 1.0)});
      }
    }
  }
  std::vector<CsrMatrix> basis;
  basis.push_back(CsrMatrix::FromTriplets(n, n, eye));
  if (order >= 2) basis.push_back(CsrMatrix::FromTriplets(n, n, op));
  for (int k = 2; k < order; ++k) {
    basis.push_back(basis[1]
                        .MatMulSparse(basis[k - 1])
                        .Scaled(2.0)
                        .Add(basis[k - 2], 1.0, -1.0));
  }
  return basis;
}

/// Snapshot-like n x n signals: values on the rows the active block reads,
/// about half of them exact zeros.
std::vector<Tensor> ActiveSignals(int n, int active, int steps, Rng& rng) {
  std::vector<Tensor> signals;
  for (int t = 0; t < steps; ++t) {
    Tensor x(n, n);
    for (int i = 0; i < active; ++i)
      for (int j = 0; j < n; ++j)
        if (rng.Uniform(0.0, 1.0) < 0.5) x.At(i, j) = rng.Normal(0.0, 1.0);
    signals.push_back(std::move(x));
  }
  return signals;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
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

/// Run, and Step under NoGradGuard, against the recording Step loop on
/// `signals`: every h_t (and c_t) bit for bit.
template <typename Cell>
void ExpectFusedIsRecorded(const Cell& cell,
                           const std::vector<CsrMatrix>& basis,
                           const std::vector<Tensor>& signals,
                           const std::string& where) {
  const std::vector<Tensor> run = cell.Run(basis, signals);
  ASSERT_EQ(run.size(), signals.size()) << where;
  RnnState recorded = cell.InitialState();
  RnnState stepped = cell.InitialState();
  for (size_t t = 0; t < signals.size(); ++t) {
    recorded = cell.Step(basis, ag::Variable::Leaf(signals[t]), recorded);
    ASSERT_TRUE(recorded.h.needs_grad()) << where;
    {
      ag::NoGradGuard no_grad;
      stepped = cell.Step(basis, ag::Variable::Leaf(signals[t]), stepped);
    }
    ASSERT_FALSE(stepped.h.needs_grad()) << where;
    EXPECT_TRUE(SameBits(run[t], recorded.h.value()))
        << where << " step " << t;
    EXPECT_TRUE(SameBits(stepped.h.value(), recorded.h.value()))
        << where << " step " << t;
    if (recorded.c.defined()) {
      EXPECT_TRUE(SameBits(stepped.c.value(), recorded.c.value()))
          << where << " step " << t;
    }
  }
}

/// Every order K in 1..3 and every number of reached rows from 1 to n
/// (n itself leaves no padding row), with sequence lengths that grow and
/// shrink so the padding table deepens and is reused.
template <typename Cell>
void ExpectFusedIsRecordedOverShapes(uint64_t seed) {
  const int n = 7, hidden = 3;
  for (int order = 1; order <= 3; ++order) {
    Rng rng(seed + order);
    Cell cell(n, hidden, order, rng);
    RandomizeRowLocal(cell, rng);
    for (int active = 1; active <= n; ++active) {
      const int steps = 1 + (active * 3) % 7;
      ExpectFusedIsRecorded(cell, ActiveBasis(n, active, order, rng),
                            ActiveSignals(n, active, steps, rng),
                            "K=" + std::to_string(order) +
                                " active=" + std::to_string(active));
    }
  }
}

TEST(GraphConvLstmCellTest, FusedKernelIsTheRecordedStepBitForBit) {
  ExpectFusedIsRecordedOverShapes<GraphConvLstmCell>(40);
}

TEST(GraphConvGruCellTest, FusedKernelIsTheRecordedStepBitForBit) {
  ExpectFusedIsRecordedOverShapes<GraphConvGruCell>(50);
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
  const auto signals = ActiveSignals(n, active, 4, rng);
  ExpectFusedIsRecorded(cell, basis, signals, "initial");

  ag::Variable param;
  for (auto& [name, p] : cell.NamedParameters())
    if (name == edited) param = p;
  ASSERT_TRUE(param.defined()) << edited;
  param.mutable_value().At(param.rows() - 1, 0) += 0.5;
  ExpectFusedIsRecorded(cell, basis, signals, "after editing " + edited);

  RnnState state = cell.InitialState();
  for (const Tensor& x : signals)
    state = cell.Step(basis, ag::Variable::Leaf(x), state);
  ag::Sum(ag::Square(state.h)).Backward();
  Adam::Options options;
  options.learning_rate = 0.1;
  Adam adam(cell.Parameters(), options);
  adam.Step();
  ExpectFusedIsRecorded(cell, basis, signals, "after an Adam step");

  Rng other_rng(seed + 1);
  Cell other(n, hidden, order, other_rng);
  RandomizeRowLocal(other, other_rng);
  std::stringstream weights;
  ASSERT_TRUE(other.Save(weights).ok());
  ASSERT_TRUE(cell.Load(weights).ok());
  ExpectFusedIsRecorded(cell, basis, signals, "after Load");
}

TEST(GraphConvLstmCellTest, PaddingTableFollowsParameterChanges) {
  ExpectPaddingTableFollowsParameters<GraphConvLstmCell>("v_i", 60);
}

TEST(GraphConvGruCellTest, PaddingTableFollowsParameterChanges) {
  ExpectPaddingTableFollowsParameters<GraphConvGruCell>("b_n", 70);
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

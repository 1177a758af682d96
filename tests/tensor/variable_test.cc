#include "tensor/variable.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "obs/profiler.h"
#include "tensor/grad_check.h"

namespace cascn::ag {
namespace {

Variable RandomLeaf(int rows, int cols, uint64_t seed,
                    bool requires_grad = true) {
  Rng rng(seed);
  return Variable::Leaf(Tensor::RandomNormal(rows, cols, 1.0, rng),
                        requires_grad);
}

TEST(VariableTest, LeafHoldsValue) {
  Variable v = Variable::Leaf(Tensor::FromRows({{1, 2}}));
  EXPECT_EQ(v.rows(), 1);
  EXPECT_EQ(v.cols(), 2);
  EXPECT_DOUBLE_EQ(v.value().At(0, 1), 2.0);
  EXPECT_FALSE(v.requires_grad());
}

TEST(VariableTest, ForwardValuesMatchTensorOps) {
  Variable a = Variable::Leaf(Tensor::FromRows({{1, 2}, {3, 4}}));
  Variable b = Variable::Leaf(Tensor::FromRows({{5, 6}, {7, 8}}));
  EXPECT_TRUE(AllClose(Add(a, b).value(), Tensor::FromRows({{6, 8}, {10, 12}})));
  EXPECT_TRUE(AllClose(Sub(a, b).value(),
                       Tensor::FromRows({{-4, -4}, {-4, -4}})));
  EXPECT_TRUE(AllClose(Mul(a, b).value(), Tensor::FromRows({{5, 12}, {21, 32}})));
  EXPECT_TRUE(AllClose(MatMul(a, b).value(),
                       Tensor::FromRows({{19, 22}, {43, 50}})));
}

TEST(VariableTest, BackwardThroughSimpleChain) {
  // loss = sum(a * a) -> dloss/da = 2a.
  Variable a = Variable::Leaf(Tensor::FromRows({{2, -3}}), true);
  Variable loss = Sum(Square(a));
  loss.Backward();
  EXPECT_DOUBLE_EQ(a.grad().At(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(a.grad().At(0, 1), -6.0);
}

TEST(VariableTest, GradAccumulatesAcrossBackwardCalls) {
  Variable a = Variable::Leaf(Tensor::FromRows({{1.0}}), true);
  Sum(Square(a)).Backward();
  Sum(Square(a)).Backward();
  EXPECT_DOUBLE_EQ(a.grad().At(0, 0), 4.0);  // 2 + 2
  a.ZeroGrad();
  EXPECT_DOUBLE_EQ(a.grad().At(0, 0), 0.0);
}

TEST(VariableTest, DiamondGraphAccumulatesBothPaths) {
  // loss = sum((a + a) * a) = 2 sum(a^2) -> grad = 4a.
  Variable a = Variable::Leaf(Tensor::FromRows({{3.0}}), true);
  Variable loss = Sum(Mul(Add(a, a), a));
  loss.Backward();
  EXPECT_DOUBLE_EQ(a.grad().At(0, 0), 12.0);
}

TEST(VariableTest, ConstantBranchesGetNoGradient) {
  Variable a = Variable::Leaf(Tensor::FromRows({{1.0}}), true);
  Variable c = Variable::Leaf(Tensor::FromRows({{5.0}}), false);
  Variable loss = Sum(Mul(a, c));
  loss.Backward();
  EXPECT_DOUBLE_EQ(a.grad().At(0, 0), 5.0);
  EXPECT_TRUE(c.grad().empty());
}

// --- Gradient checks for every op -------------------------------------------

TEST(GradCheckTest, Add) {
  Variable a = RandomLeaf(3, 2, 1);
  Variable b = RandomLeaf(3, 2, 2, false);
  auto r = CheckGradient(a, [&](const Variable& x) { return Sum(Add(x, b)); });
  EXPECT_TRUE(r.ok) << "rel err " << r.max_rel_error;
}

TEST(GradCheckTest, SubBothSides) {
  Variable a = RandomLeaf(2, 3, 3);
  Variable b = RandomLeaf(2, 3, 4);
  auto ra =
      CheckGradient(a, [&](const Variable& x) { return Sum(Sub(x, b)); });
  EXPECT_TRUE(ra.ok);
  auto rb =
      CheckGradient(b, [&](const Variable& x) { return Sum(Sub(a, x)); });
  EXPECT_TRUE(rb.ok);
}

TEST(GradCheckTest, MulElementwise) {
  Variable a = RandomLeaf(3, 3, 5);
  Variable b = RandomLeaf(3, 3, 6, false);
  auto r = CheckGradient(
      a, [&](const Variable& x) { return Sum(Square(Mul(x, b))); });
  EXPECT_TRUE(r.ok) << r.max_rel_error;
}

TEST(GradCheckTest, AddRowBroadcast) {
  Variable a = RandomLeaf(4, 3, 7);
  Variable bias = RandomLeaf(1, 3, 8);
  auto ra = CheckGradient(a, [&](const Variable& x) {
    return Sum(Square(AddRowBroadcast(x, bias)));
  });
  EXPECT_TRUE(ra.ok);
  auto rb = CheckGradient(bias, [&](const Variable& x) {
    return Sum(Square(AddRowBroadcast(a, x)));
  });
  EXPECT_TRUE(rb.ok);
}

TEST(GradCheckTest, ScalarOps) {
  Variable a = RandomLeaf(2, 2, 9);
  auto r1 = CheckGradient(
      a, [&](const Variable& x) { return Sum(Square(ScalarMul(x, -2.5))); });
  EXPECT_TRUE(r1.ok);
  auto r2 = CheckGradient(
      a, [&](const Variable& x) { return Sum(Square(AddScalar(x, 1.5))); });
  EXPECT_TRUE(r2.ok);
}

TEST(GradCheckTest, ScaleByScalarBothInputs) {
  Variable a = RandomLeaf(3, 2, 10);
  Variable s = RandomLeaf(1, 1, 11);
  auto ra = CheckGradient(a, [&](const Variable& x) {
    return Sum(Square(ScaleByScalar(x, s)));
  });
  EXPECT_TRUE(ra.ok);
  auto rs = CheckGradient(s, [&](const Variable& x) {
    return Sum(Square(ScaleByScalar(a, x)));
  });
  EXPECT_TRUE(rs.ok);
}

TEST(GradCheckTest, MatMulBothSides) {
  Variable a = RandomLeaf(3, 4, 12);
  Variable b = RandomLeaf(4, 2, 13);
  auto ra = CheckGradient(
      a, [&](const Variable& x) { return Sum(Square(MatMul(x, b))); });
  EXPECT_TRUE(ra.ok) << ra.max_rel_error;
  auto rb = CheckGradient(
      b, [&](const Variable& x) { return Sum(Square(MatMul(a, x))); });
  EXPECT_TRUE(rb.ok) << rb.max_rel_error;
}

TEST(GradCheckTest, SparseMatMul) {
  CsrMatrix op = CsrMatrix::FromTriplets(
      3, 3, {{0, 0, 2.0}, {0, 2, -1.0}, {1, 1, 0.5}, {2, 0, 1.5}});
  Variable x = RandomLeaf(3, 2, 14);
  auto r = CheckGradient(x, [&](const Variable& v) {
    return Sum(Square(SparseMatMul(op, v)));
  });
  EXPECT_TRUE(r.ok) << r.max_rel_error;
}

TEST(GradCheckTest, Nonlinearities) {
  for (uint64_t seed : {20ull, 21ull}) {
    Variable a = RandomLeaf(3, 3, seed);
    EXPECT_TRUE(CheckGradient(a, [](const Variable& x) {
                  return Sum(Sigmoid(x));
                }).ok);
    EXPECT_TRUE(
        CheckGradient(a, [](const Variable& x) { return Sum(Tanh(x)); }).ok);
    EXPECT_TRUE(CheckGradient(a, [](const Variable& x) {
                  return Sum(Softplus(x));
                }).ok);
    EXPECT_TRUE(CheckGradient(a, [](const Variable& x) {
                  return Sum(Square(x));
                }).ok);
  }
}

TEST(GradCheckTest, ReluAwayFromKink) {
  // Values kept away from 0 so finite differences are valid.
  Tensor init = Tensor::FromRows({{1.0, -1.0}, {2.0, -0.5}});
  Variable a = Variable::Leaf(init, true);
  auto r =
      CheckGradient(a, [](const Variable& x) { return Sum(Relu(x)); });
  EXPECT_TRUE(r.ok);
}

TEST(GradCheckTest, SoftmaxRows) {
  Variable a = RandomLeaf(3, 4, 22);
  Variable weight = RandomLeaf(3, 4, 23, false);
  auto r = CheckGradient(a, [&](const Variable& x) {
    return Sum(Mul(SoftmaxRows(x), weight));
  });
  EXPECT_TRUE(r.ok) << r.max_rel_error;
}

TEST(GradCheckTest, Reductions) {
  Variable a = RandomLeaf(3, 4, 24);
  EXPECT_TRUE(
      CheckGradient(a, [](const Variable& x) { return Mean(x); }).ok);
  EXPECT_TRUE(CheckGradient(a, [](const Variable& x) {
                return Sum(Square(SumRows(x)));
              }).ok);
  EXPECT_TRUE(CheckGradient(a, [](const Variable& x) {
                return Sum(Square(MeanRows(x)));
              }).ok);
}

TEST(GradCheckTest, ConcatAndSlice) {
  Variable a = RandomLeaf(3, 2, 25);
  Variable b = RandomLeaf(3, 3, 26);
  auto rc = CheckGradient(a, [&](const Variable& x) {
    return Sum(Square(ConcatCols(x, b)));
  });
  EXPECT_TRUE(rc.ok);
  Variable c = RandomLeaf(4, 2, 27);
  auto rr = CheckGradient(c, [&](const Variable& x) {
    return Sum(Square(ConcatRows({x, a})));
  });
  EXPECT_TRUE(rr.ok);
  auto rs = CheckGradient(c, [](const Variable& x) {
    return Sum(Square(SliceRows(x, 1, 2)));
  });
  EXPECT_TRUE(rs.ok);
}

TEST(GradCheckTest, GatherRowsWithRepeats) {
  Variable table = RandomLeaf(5, 3, 28);
  const std::vector<int> indices = {0, 2, 2, 4};
  auto r = CheckGradient(table, [&](const Variable& x) {
    return Sum(Square(GatherRows(x, indices)));
  });
  EXPECT_TRUE(r.ok) << r.max_rel_error;
}

TEST(GradCheckTest, Transpose) {
  Variable a = RandomLeaf(2, 4, 29);
  Variable b = RandomLeaf(2, 2, 30, false);
  auto r = CheckGradient(a, [&](const Variable& x) {
    return Sum(Square(MatMul(Transpose(x), b)));
  });
  EXPECT_TRUE(r.ok);
}

TEST(GradCheckTest, DeepComposite) {
  // A small MLP-like composite touching many ops at once.
  Variable w1 = RandomLeaf(3, 4, 31);
  Variable b1 = RandomLeaf(1, 4, 32);
  Variable w2 = RandomLeaf(4, 1, 33);
  Variable x = RandomLeaf(2, 3, 34, false);
  auto forward = [&](const Variable& w) {
    Variable h = Tanh(AddRowBroadcast(MatMul(x, w), b1));
    return Sum(Square(MatMul(h, w2)));
  };
  auto r = CheckGradient(w1, forward);
  EXPECT_TRUE(r.ok) << r.max_rel_error;
}

TEST(VariableTest, BackwardRequiresScalar) {
  Variable a = RandomLeaf(2, 2, 35);
  EXPECT_DEATH(Add(a, a).Backward(), "scalar");
}

TEST(VariableTest, ShapeMismatchDies) {
  Variable a = RandomLeaf(2, 2, 36);
  Variable b = RandomLeaf(3, 2, 37);
  EXPECT_DEATH(Add(a, b), "shape");
}

// --- Inference mode ---------------------------------------------------------

TEST(NoGradGuardTest, NestsAndRestores) {
  EXPECT_TRUE(GradEnabled());
  {
    NoGradGuard outer;
    EXPECT_FALSE(GradEnabled());
    {
      NoGradGuard inner;
      EXPECT_FALSE(GradEnabled());
    }
    EXPECT_FALSE(GradEnabled());
  }
  EXPECT_TRUE(GradEnabled());
}

bool BitEqual(const Tensor& x, const Tensor& y) {
  return x.SameShape(y) &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

TEST(NoGradGuardTest, EveryOpComputesTheSameBitsWithoutAGraph) {
  const Variable a = RandomLeaf(3, 4, 50);
  const Variable b = RandomLeaf(3, 4, 51);
  const Variable row = RandomLeaf(1, 4, 52);
  const Variable s = RandomLeaf(1, 1, 53);
  const Variable w = RandomLeaf(4, 3, 54);
  const CsrMatrix op = CsrMatrix::FromTriplets(
      3, 3, {{0, 0, 0.5}, {0, 2, -1.0}, {1, 1, 2.0}, {2, 0, 0.25}});
  const std::vector<std::pair<std::string, std::function<Variable()>>> ops = {
      {"Add", [&] { return Add(a, b); }},
      {"Sub", [&] { return Sub(a, b); }},
      {"Mul", [&] { return Mul(a, b); }},
      {"AddRowBroadcast", [&] { return AddRowBroadcast(a, row); }},
      {"ScalarMul", [&] { return ScalarMul(a, 1.5); }},
      {"AddScalar", [&] { return AddScalar(a, -0.25); }},
      {"ScaleByScalar", [&] { return ScaleByScalar(a, s); }},
      {"MatMul", [&] { return MatMul(a, w); }},
      {"SparseMatMul", [&] { return SparseMatMul(op, a); }},
      {"Sigmoid", [&] { return Sigmoid(a); }},
      {"Tanh", [&] { return Tanh(a); }},
      {"Relu", [&] { return Relu(a); }},
      {"Square", [&] { return Square(a); }},
      {"Softplus", [&] { return Softplus(a); }},
      {"SoftmaxRows", [&] { return SoftmaxRows(a); }},
      {"Sum", [&] { return Sum(a); }},
      {"Mean", [&] { return Mean(a); }},
      {"MeanRows", [&] { return MeanRows(a); }},
      {"SumRows", [&] { return SumRows(a); }},
      {"ConcatCols", [&] { return ConcatCols(a, b); }},
      {"ConcatRows", [&] { return ConcatRows({a, b}); }},
      {"SliceRows", [&] { return SliceRows(a, 1, 2); }},
      {"GatherRows", [&] { return GatherRows(a, {2, 0, 2}); }},
      {"Transpose", [&] { return Transpose(a); }},
  };
  for (const auto& [name, fn] : ops) {
    const Variable recorded = fn();
    ASSERT_TRUE(recorded.needs_grad()) << name;
    ASSERT_FALSE(recorded.node()->parents.empty()) << name;
    const long uses = a.node().use_count();
    NoGradGuard no_grad;
    const Variable value = fn();
    EXPECT_FALSE(value.needs_grad()) << name;
    EXPECT_TRUE(value.node()->parents.empty()) << name;
    EXPECT_FALSE(value.node()->backward) << name;
    EXPECT_EQ(a.node().use_count(), uses) << name;
    EXPECT_TRUE(BitEqual(recorded.value(), value.value())) << name;
  }
}

/// The sigmoid as two branches with three exp calls, the form ag::Sigmoid
/// once had.
double ThreeExpSigmoid(double x) {
  return x >= 0 ? 1.0 / (1.0 + Exp(-x)) : Exp(x) / (1.0 + Exp(x));
}

TEST(StableSigmoidTest, SameBitsAsTheThreeExpFormula) {
  std::vector<double> inputs = {0.0,     -0.0,    1e-300, -1e-300,
                                745.0,   -745.0,  1.0,    -1.0,
                                INFINITY, -INFINITY, NAN};
  Rng rng(77);
  for (int i = 0; i < 10000; ++i)
    inputs.push_back(i % 2 == 0 ? rng.Normal(0.0, 20.0)
                                : rng.Uniform(-800.0, 800.0));
  Tensor t(1, static_cast<int>(inputs.size()));
  for (size_t i = 0; i < inputs.size(); ++i) {
    const double want = ThreeExpSigmoid(inputs[i]);
    const double got = cascn::Sigmoid(inputs[i]);
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
        << "x=" << inputs[i] << ": " << want << " vs " << got;
    t.At(0, static_cast<int>(i)) = inputs[i];
  }
  const Tensor op = Sigmoid(Variable::Leaf(t)).value();
  for (size_t i = 0; i < inputs.size(); ++i) {
    const double want = ThreeExpSigmoid(inputs[i]);
    const double got = op.At(0, static_cast<int>(i));
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
        << "ag::Sigmoid at x=" << inputs[i];
  }
}

TEST(NoGradGuardTest, ConstantInputsRecordNoGraph) {
  const Variable c = RandomLeaf(2, 2, 55, /*requires_grad=*/false);
  const long uses = c.node().use_count();
  const Variable y = Tanh(Add(c, c));
  EXPECT_FALSE(y.needs_grad());
  EXPECT_TRUE(y.node()->parents.empty());
  EXPECT_EQ(c.node().use_count(), uses);
}

TEST(NoGradGuardTest, ConstantBranchSparseMatMulCopiesNoOperator) {
  const CsrMatrix op = CsrMatrix::FromTriplets(
      3, 3, {{0, 1, 1.0}, {1, 2, -2.0}, {2, 2, 0.5}});
  const Variable constant = RandomLeaf(3, 4, 56, /*requires_grad=*/false);
  const Variable param = RandomLeaf(3, 4, 57);
  obs::Profiler& profiler = obs::Profiler::Get();
  auto allocs = [&](const Variable& x) {
    profiler.Reset();
    profiler.Enable();
    const uint64_t before = profiler.alloc_count();
    const Variable y = SparseMatMul(op, x);
    const uint64_t count = profiler.alloc_count() - before;
    profiler.Disable();
    profiler.Reset();
    return count;
  };
  // The output tensor only.
  EXPECT_EQ(allocs(constant), 1u);
  {
    NoGradGuard no_grad;
    EXPECT_EQ(allocs(param), 1u);
  }
  // Recording: the output plus the closure's copy of the three CSR arrays.
  EXPECT_EQ(allocs(param), 4u);
  // Recording on a temporary operator: the closure takes it over.
  profiler.Reset();
  profiler.Enable();
  CsrMatrix temporary = op;
  const uint64_t before = profiler.alloc_count();
  const Variable y = SparseMatMul(std::move(temporary), param);
  EXPECT_EQ(profiler.alloc_count() - before, 1u);
  profiler.Disable();
  profiler.Reset();
  const Tensor expected = op.MatMulDense(param.value());
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 4; ++c)
      EXPECT_EQ(y.value().At(r, c), expected.At(r, c));
}

TEST(NoGradGuardDeathTest, BackwardOnAGuardedResultDies) {
  const Variable a = RandomLeaf(2, 2, 58);
  Variable loss;
  {
    NoGradGuard no_grad;
    loss = Sum(Square(a));
  }
  EXPECT_DEATH(loss.Backward(), "recorded no graph");
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// y = 3 a (.) b as a RecordOp, handing a then b its gradient.
Variable ScaledProduct(const Variable& a, const Variable& b, int* calls) {
  Tensor value = cascn::Mul(a.value(), b.value());
  value.Scale(3.0);
  return RecordOp(
      std::move(value), {a, b},
      [a, b, calls](const Tensor& grad) {
        ++*calls;
        Tensor g = cascn::Mul(grad, b.value());
        g.Scale(3.0);
        if (a.needs_grad()) AccumulateGrad(a, g);
        g = cascn::Mul(grad, a.value());
        g.Scale(3.0);
        if (b.needs_grad()) AccumulateGrad(b, g);
      },
      static_cast<uint64_t>(a.value().size()));
}

TEST(RecordOpTest, BackwardRunsOnceWithTheAccumulatedGradient) {
  Variable a = RandomLeaf(2, 3, 60);
  const Variable b = RandomLeaf(2, 3, 61, /*requires_grad=*/false);
  int calls = 0;
  const Variable y = ScaledProduct(a, b, &calls);
  ASSERT_TRUE(y.needs_grad());
  // y feeds the loss twice, so its gradient is 2 (2 y) before it runs.
  Add(Sum(Square(y)), Sum(Square(y))).Backward();
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(b.grad().empty());
  Tensor expected = cascn::Mul(y.value(), b.value());
  expected.Scale(4.0 * 3.0);
  EXPECT_TRUE(AllClose(a.grad(), expected, 1e-12));
  auto r = CheckGradient(a, [&](const Variable&) {
    int unused = 0;
    return Sum(Square(ScaledProduct(a, b, &unused)));
  });
  EXPECT_TRUE(r.ok) << r.max_rel_error;
}

TEST(RecordOpTest, RecordsNothingUnderTheGuardOrOverConstants) {
  const Variable a = RandomLeaf(2, 2, 62);
  const Variable c = RandomLeaf(2, 2, 63, /*requires_grad=*/false);
  int calls = 0;
  EXPECT_FALSE(ScaledProduct(c, c, &calls).needs_grad());
  Variable guarded;
  {
    NoGradGuard no_grad;
    guarded = ScaledProduct(a, c, &calls);
  }
  EXPECT_FALSE(guarded.needs_grad());
  EXPECT_EQ(a.node().use_count(), 1);  // the result holds no parents
  const Variable recorded = ScaledProduct(a, c, &calls);
  EXPECT_TRUE(SameBits(guarded.value(), recorded.value()));
}

TEST(RecordOpTest, ParameterGradientsGoToTheActiveSink) {
  const Variable a = RandomLeaf(2, 2, 64);
  const Variable c = RandomLeaf(2, 2, 65, /*requires_grad=*/false);
  int calls = 0;
  GradSink sink;
  {
    ScopedGradCapture capture(&sink);
    Sum(ScaledProduct(a, c, &calls)).Backward();
  }
  EXPECT_TRUE(a.grad().empty());
  sink.Flush();
  Tensor expected = c.value();
  expected.Scale(3.0);
  EXPECT_TRUE(SameBits(a.grad(), expected));
}

/// Gradients of 2 x 3 Variables handed over as blocks of one 2 x 7 buffer
/// (rows 7 apart), with values whose sums round differently in each order.
struct StridedContributions {
  StridedContributions() {
    Rng rng(70);
    for (double& x : buffer) x = rng.Normal(0.0, 1.0) * 1e8;
    buffer[1] = -0.0;
    pointers = {buffer, buffer + 4, buffer + 2};
  }
  /// Contribution i as a 2 x 3 Tensor.
  Tensor Block(int i) const {
    Tensor t(2, 3);
    for (int r = 0; r < 2; ++r)
      for (int c = 0; c < 3; ++c) t.At(r, c) = pointers[i][r * 7 + c];
    return t;
  }
  double buffer[14];
  std::vector<const double*> pointers;
};

TEST(RecordOpTest, AccumulateGradsIsOneAccumulateGradPerContribution) {
  const StridedContributions in;
  for (const bool requires_grad : {false, true}) {
    for (const bool capture : {false, true}) {
      Variable one_pass = RandomLeaf(2, 3, 71, requires_grad);
      Variable in_turn = RandomLeaf(2, 3, 71, requires_grad);
      if (!requires_grad) {
        // Intermediate nodes: an op over a parameter, so they take a
        // gradient without being leaves.
        const Variable p = RandomLeaf(2, 3, 72);
        one_pass = Add(p, p);
        in_turn = Add(p, p);
      }
      GradSink sink_one, sink_turn;
      {
        ScopedGradCapture c1(capture ? &sink_one : nullptr);
        AccumulateGrad(one_pass, in.Block(1));
        AccumulateGrads(one_pass, in.pointers.data(), in.pointers.size(), 7);
      }
      {
        ScopedGradCapture c2(capture ? &sink_turn : nullptr);
        AccumulateGrad(in_turn, in.Block(1));
        for (int i = 0; i < 3; ++i) AccumulateGrad(in_turn, in.Block(i));
      }
      sink_one.Flush();
      sink_turn.Flush();
      EXPECT_TRUE(SameBits(one_pass.grad(), in_turn.grad()))
          << "requires_grad=" << requires_grad << " capture=" << capture;
    }
  }
}

TEST(RecordOpDeathTest, AccumulateGradIntoAConstantDies) {
  const Variable c = RandomLeaf(2, 2, 66, /*requires_grad=*/false);
  EXPECT_DEATH(AccumulateGrad(c, Tensor(2, 2)), "needs no gradient");
}

}  // namespace
}  // namespace cascn::ag

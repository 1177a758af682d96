#include "obs/profiler.h"

#include <chrono>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics_registry.h"
#include "tensor/variable.h"

namespace cascn::obs {
namespace {

/// Enables + resets the global profiler for one test, restoring the
/// disabled state afterwards so tests stay order-independent.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::Get().Enable();
    Profiler::Get().Reset();
  }
  void TearDown() override {
    Profiler::Get().Disable();
    Profiler::Get().Reset();
  }
};

ag::Variable MatMulChainLoss(int n, int chain) {
  Rng rng(7);
  ag::Variable x =
      ag::Variable::Leaf(Tensor::RandomNormal(n, n, 0.1, rng), true);
  ag::Variable y = x;
  for (int i = 0; i < chain; ++i) y = ag::Tanh(ag::MatMul(y, x));
  return ag::Mean(ag::Square(y));
}

TEST_F(ProfilerTest, RecordsForwardAndBackwardPerOp) {
  const ag::Variable loss = MatMulChainLoss(24, 4);
  loss.Backward();

  const auto snap = Profiler::Get().TakeSnapshot();
  const auto& matmul = snap.ops[static_cast<int>(OpKind::kMatMul)];
  EXPECT_EQ(matmul.forward_calls, 4u);
  EXPECT_EQ(matmul.backward_calls, 4u);
  // 2 m k n forward, double that backward, per call.
  EXPECT_EQ(matmul.forward_flops, 4u * 2 * 24 * 24 * 24);
  EXPECT_EQ(matmul.backward_flops, 2 * matmul.forward_flops);
  EXPECT_EQ(matmul.forward_bytes, 4u * 24 * 24 * sizeof(double));
  EXPECT_GT(matmul.forward_ns, 0u);
  EXPECT_GT(matmul.backward_ns, 0u);

  const auto& tanh = snap.ops[static_cast<int>(OpKind::kTanh)];
  EXPECT_EQ(tanh.forward_calls, 4u);
  EXPECT_EQ(tanh.backward_calls, 4u);
  // Leaf nodes never record.
  EXPECT_EQ(snap.ops[static_cast<int>(OpKind::kLeaf)].forward_calls, 0u);
  EXPECT_EQ(snap.ops[static_cast<int>(OpKind::kLeaf)].backward_calls, 0u);
}

TEST_F(ProfilerTest, OpAttributionCoversStepWallClock) {
  // The per-op forward attribution must account for the bulk of the time a
  // step actually spends in op constructors. The ops below do real work
  // (64x64 matmul chains), so op time dominates graph bookkeeping; wide
  // tolerances keep this robust on loaded CI machines.
  const auto start = std::chrono::steady_clock::now();
  const ag::Variable loss = MatMulChainLoss(64, 8);
  loss.Backward();
  const double wall_ns =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                               start)
          .count();

  const auto snap = Profiler::Get().TakeSnapshot();
  const double attributed_ns = static_cast<double>(snap.TotalNs());
  EXPECT_GT(attributed_ns, 0.3 * wall_ns);
  // Timers never overlap (ops do not nest, backward closures run serially),
  // so attribution cannot exceed wall-clock by more than timer noise.
  EXPECT_LT(attributed_ns, 1.1 * wall_ns);
}

TEST_F(ProfilerTest, AllocationAccountingReturnsToZero) {
  const int64_t live_before = Profiler::Get().live_bytes();
  {
    const ag::Variable loss = MatMulChainLoss(16, 3);
    loss.Backward();
    // Graph retained: node values and grads are still live.
    EXPECT_GT(Profiler::Get().live_bytes(), live_before);
  }
  // Everything allocated by the step was tracked and freed.
  EXPECT_EQ(Profiler::Get().live_bytes(), live_before);
  EXPECT_EQ(Profiler::Get().alloc_count(), Profiler::Get().free_count());
  EXPECT_GE(Profiler::Get().peak_live_bytes(),
            static_cast<int64_t>(16 * 16 * sizeof(double)));
}

TEST_F(ProfilerTest, SparseMatMulFlopsScaleWithNnz) {
  const CsrMatrix op = CsrMatrix::FromDense(Tensor::Identity(8));
  Rng rng(3);
  const ag::Variable x =
      ag::Variable::Leaf(Tensor::RandomNormal(8, 4, 1.0, rng), true);
  ag::Sum(ag::SparseMatMul(op, x)).Backward();
  const auto snap = Profiler::Get().TakeSnapshot();
  const auto& spmm = snap.ops[static_cast<int>(OpKind::kSparseMatMul)];
  EXPECT_EQ(spmm.forward_calls, 1u);
  EXPECT_EQ(spmm.forward_flops, 2u * 8 * 4);  // 2 * nnz * cols
  EXPECT_EQ(spmm.backward_flops, spmm.forward_flops);
}

TEST_F(ProfilerTest, DisabledRecordsNothing) {
  Profiler::Get().Disable();
  const ag::Variable loss = MatMulChainLoss(16, 2);
  loss.Backward();
  const auto snap = Profiler::Get().TakeSnapshot();
  EXPECT_EQ(snap.TotalNs(), 0u);
  for (const auto& op : snap.ops) {
    EXPECT_EQ(op.forward_calls, 0u);
    EXPECT_EQ(op.backward_calls, 0u);
  }
  EXPECT_EQ(snap.alloc_count, 0u);
  EXPECT_EQ(snap.live_bytes, 0);
}

TEST_F(ProfilerTest, BackwardAttributesNodesBuiltWhileDisabled) {
  // op kinds are tagged unconditionally at construction, so a graph built
  // with profiling off still attributes its backward once profiling is on.
  Profiler::Get().Disable();
  const ag::Variable loss = MatMulChainLoss(16, 2);
  Profiler::Get().Enable();
  loss.Backward();
  const auto snap = Profiler::Get().TakeSnapshot();
  const auto& matmul = snap.ops[static_cast<int>(OpKind::kMatMul)];
  EXPECT_EQ(matmul.forward_calls, 0u);
  EXPECT_EQ(matmul.backward_calls, 2u);
  // backward FLOP estimates are only stamped while profiling.
  EXPECT_EQ(matmul.backward_flops, 0u);
  EXPECT_GT(matmul.backward_ns, 0u);
}

TEST_F(ProfilerTest, SnapshotJsonAndTableListBusyOpsOnly) {
  ag::Sum(MatMulChainLoss(8, 1)).value();  // MatMul, Tanh, Square, Mean, Sum
  const auto snap = Profiler::Get().TakeSnapshot();
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"mat_mul\""), std::string::npos);
  EXPECT_NE(json.find("\"memory\""), std::string::npos);
  EXPECT_EQ(json.find("\"relu\""), std::string::npos);  // never called
  const std::string table = snap.ToTable();
  EXPECT_NE(table.find("mat_mul"), std::string::npos);
  EXPECT_EQ(table.find("relu"), std::string::npos);
}

TEST_F(ProfilerTest, ExportToRegistryPublishesGauges) {
  MatMulChainLoss(8, 1).Backward();
  MetricsRegistry registry;
  Profiler::Get().ExportToRegistry(registry);
  const std::string json = registry.JsonSnapshot();
  EXPECT_NE(json.find("profile_op_mat_mul_calls"), std::string::npos);
  EXPECT_NE(json.find("profile_peak_live_bytes"), std::string::npos);
}

TEST(OpKindNameTest, AllKindsNamed) {
  for (int i = 0; i < kNumOpKinds; ++i) {
    EXPECT_FALSE(OpKindName(static_cast<OpKind>(i)).empty()) << i;
  }
}

}  // namespace
}  // namespace cascn::obs

#include "tensor/csr_matrix.h"

#include <cstring>
#include <map>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace cascn {
namespace {

/// Random sparse matrix with the given density.
CsrMatrix RandomSparse(int rows, int cols, double density, Rng& rng) {
  std::vector<Triplet> trips;
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j)
      if (rng.Bernoulli(density)) trips.push_back({i, j, rng.Normal()});
  return CsrMatrix::FromTriplets(rows, cols, std::move(trips));
}

TEST(CsrMatrixTest, EmptyMatrix) {
  CsrMatrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.nnz(), 0);
}

TEST(CsrMatrixTest, FromTripletsMergesDuplicates) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.0}, {1, 1, 5.0}});
  EXPECT_EQ(m.nnz(), 2);
  Tensor dense = m.ToDense();
  EXPECT_DOUBLE_EQ(dense.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(dense.At(1, 1), 5.0);
}

TEST(CsrMatrixTest, DenseRoundTrip) {
  Tensor dense = Tensor::FromRows({{0, 1, 0}, {2, 0, 3}});
  EXPECT_TRUE(AllClose(CsrMatrix::FromDense(dense).ToDense(), dense));
}

TEST(CsrMatrixTest, FromDenseDropsZeros) {
  Tensor dense = Tensor::FromRows({{0, 1}, {0, 0}});
  EXPECT_EQ(CsrMatrix::FromDense(dense).nnz(), 1);
}

class SpMMSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(SpMMSweep, MatchesDenseMatMul) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 31 + k * 7 + n);
  CsrMatrix sparse = RandomSparse(m, k, 0.3, rng);
  Tensor dense = Tensor::RandomNormal(k, n, 1.0, rng);
  EXPECT_TRUE(AllClose(sparse.MatMulDense(dense),
                       MatMul(sparse.ToDense(), dense), 1e-9));
}

TEST_P(SpMMSweep, TransposeMatMulMatchesExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(m + k + n);
  CsrMatrix sparse = RandomSparse(m, k, 0.3, rng);
  Tensor dense = Tensor::RandomNormal(m, n, 1.0, rng);
  EXPECT_TRUE(AllClose(sparse.TransposeMatMulDense(dense),
                       MatMul(sparse.ToDense().Transposed(), dense), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpMMSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 4, 2),
                      std::make_tuple(6, 6, 6), std::make_tuple(10, 3, 7)));

/// Sparse x sparse through a sorted-map row accumulator: the per-entry
/// order (the left row's entries ascending) and the zero dropping that
/// StackedProducts must reproduce bit for bit.
CsrMatrix MapAccumulatorProduct(const CsrMatrix& a, const CsrMatrix& b) {
  std::vector<Triplet> trips;
  for (int r = 0; r < a.rows(); ++r) {
    std::map<int, double> row;
    for (int k = a.row_offsets()[r]; k < a.row_offsets()[r + 1]; ++k) {
      const int mid = a.col_indices()[k];
      for (int k2 = b.row_offsets()[mid]; k2 < b.row_offsets()[mid + 1]; ++k2)
        row[b.col_indices()[k2]] += a.values()[k] * b.values()[k2];
    }
    for (const auto& [c, v] : row)
      if (v != 0.0) trips.push_back({r, c, v});
  }
  return CsrMatrix::FromTriplets(a.rows(), b.cols(), std::move(trips));
}

/// Random sparse matrix whose entries are +-1, so products can cancel to
/// exact zeros.
CsrMatrix RandomSigns(int rows, int cols, double density, Rng& rng) {
  std::vector<Triplet> trips;
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j)
      if (rng.Bernoulli(density))
        trips.push_back({i, j, rng.Bernoulli(0.5) ? 1.0 : -1.0});
  return CsrMatrix::FromTriplets(rows, cols, std::move(trips));
}

bool SameBits(const CsrMatrix& a, const CsrMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         a.row_offsets() == b.row_offsets() &&
         a.col_indices() == b.col_indices() && a.nnz() == b.nnz() &&
         (a.nnz() == 0 ||
          std::memcmp(a.values().data(), b.values().data(),
                      a.nnz() * sizeof(double)) == 0);
}

TEST(CsrMatrixTest, RowBlocksReassembleTheMatrix) {
  Rng rng(37);
  const CsrMatrix m = RandomSparse(9, 5, 0.4, rng);
  std::vector<Triplet> trips;
  for (const int first : {0, 4, 7}) {
    const int count = first == 0 ? 4 : first == 4 ? 3 : 2;
    const CsrMatrix block = m.RowBlock(first, count, {0, 5});
    ASSERT_EQ(block.rows(), count);
    ASSERT_EQ(block.cols(), 5);
    for (int r = 0; r < count; ++r)
      for (int e = block.row_offsets()[r]; e < block.row_offsets()[r + 1]; ++e)
        trips.push_back({first + r, block.col_indices()[e], block.values()[e]});
  }
  EXPECT_TRUE(SameBits(CsrMatrix::FromTriplets(9, 5, std::move(trips)), m));
  EXPECT_EQ(m.RowBlock(3, 0, {0, 5}).nnz(), 0);
}

TEST(CsrMatrixTest, RowBlocksKeepTheEntriesInAColumnRange) {
  Rng rng(43);
  const CsrMatrix m = RandomSparse(9, 6, 0.5, rng);
  const Tensor dense = m.ToDense();
  for (const ColumnRange columns :
       {ColumnRange{0, 6}, ColumnRange{1, 4}, ColumnRange{2, 2},
        ColumnRange{5, 6}}) {
    const CsrMatrix block = m.RowBlock(2, 5, columns);
    ASSERT_EQ(block.rows(), 5);
    ASSERT_EQ(block.cols(), 6);
    Tensor want(5, 6);
    for (int r = 0; r < 5; ++r)
      for (int c = columns.begin; c < columns.end; ++c)
        want.At(r, c) = dense.At(2 + r, c);
    EXPECT_TRUE(SameBits(block, CsrMatrix::FromDense(want)))
        << "columns [" << columns.begin << ", " << columns.end << ")";
  }
}

/// The identity on rows [0, active) of an n x n matrix, as ChebyshevBasis
/// builds T_0.
CsrMatrix PartialIdentity(int n, int active) {
  std::vector<Triplet> trips;
  for (int i = 0; i < active; ++i) trips.push_back({i, i, 1.0});
  return CsrMatrix::FromTriplets(n, n, std::move(trips));
}

TEST(CsrMatrixTest, StackedProductsAreTheBlockProductsBitForBit) {
  Rng rng(41);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 1 + static_cast<int>(rng.UniformInt(16));
    const int active = static_cast<int>(rng.UniformInt(n + 1));
    const int cols = trial % 4 == 3 ? 1 + static_cast<int>(rng.UniformInt(8))
                                    : n;
    const bool signs = trial % 2 == 1;
    // A partial identity first, as a Chebyshev basis has, then random
    // operators that can cancel.
    std::vector<CsrMatrix> lefts = {PartialIdentity(n, active)};
    const int order = 1 + static_cast<int>(rng.UniformInt(3));
    while (static_cast<int>(lefts.size()) < order)
      lefts.push_back(signs ? RandomSigns(n, n, 0.5, rng)
                            : RandomSparse(n, n, 0.5, rng));
    // Right operands on the identity's rows, past them, and with a stored
    // zero, which a product drops.
    const int rights = 1 + static_cast<int>(rng.UniformInt(4));
    for (int t = 0; t < rights; ++t) {
      std::vector<Triplet> trips;
      const int rows = t % 2 == 0 ? active : n;
      for (int i = 0; i < rows; ++i)
        for (int j = 0; j < cols; ++j)
          if (rng.Bernoulli(0.3))
            trips.push_back({i, j, signs ? (rng.Bernoulli(0.5) ? 1.0 : -1.0)
                                         : rng.Normal()});
      if (t == 3 && !trips.empty()) trips.front().value = 0.0;
      const CsrMatrix right =
          CsrMatrix::FromTriplets(n, cols, std::move(trips));
      const CsrMatrix stack = StackedProducts(lefts, right);
      ASSERT_EQ(stack.rows(), order * n) << "trial " << trial;
      ASSERT_EQ(stack.cols(), cols) << "trial " << trial;
      for (int k = 0; k < order; ++k) {
        EXPECT_TRUE(SameBits(stack.RowBlock(k * n, n, {0, cols}),
                             MapAccumulatorProduct(lefts[k], right)))
            << "trial " << trial << " t=" << t << " k=" << k;
      }
      for (const double v : stack.values()) EXPECT_NE(v, 0.0);
    }
  }
}

TEST(CsrMatrixTest, RowOffsetsAreConsistent) {
  Rng rng(29);
  CsrMatrix m = RandomSparse(8, 8, 0.3, rng);
  const auto& offsets = m.row_offsets();
  ASSERT_EQ(offsets.size(), 9u);
  EXPECT_EQ(offsets.front(), 0);
  EXPECT_EQ(offsets.back(), m.nnz());
  for (size_t i = 1; i < offsets.size(); ++i)
    EXPECT_GE(offsets[i], offsets[i - 1]);
}

}  // namespace
}  // namespace cascn

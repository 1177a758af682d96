#include "tensor/linalg.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/cascade_generator.h"
#include "graph/laplacian.h"

namespace cascn {
namespace {

TEST(CholeskyTest, FactorsKnownSpdMatrix) {
  // A = L L^T with L = [[2,0],[1,3]].
  Tensor a = Tensor::FromRows({{4, 2}, {2, 10}});
  auto l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR(l->At(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l->At(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(l->At(1, 1), 3.0, 1e-12);
  EXPECT_NEAR(l->At(0, 1), 0.0, 1e-12);
}

TEST(CholeskyTest, RejectsNonSpd) {
  Tensor a = Tensor::FromRows({{1, 5}, {5, 1}});  // indefinite
  EXPECT_FALSE(CholeskyFactor(a).ok());
}

TEST(CholeskyTest, RejectsNonSquare) {
  EXPECT_FALSE(CholeskyFactor(Tensor(2, 3)).ok());
}

TEST(SolveSpdTest, SolvesRandomSystems) {
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 3 + trial;
    // SPD via B B^T + n I.
    Tensor b = Tensor::RandomNormal(n, n, 1.0, rng);
    Tensor a = MatMulTransposeB(b, b);
    for (int i = 0; i < n; ++i) a.At(i, i) += n;
    Tensor x_true = Tensor::RandomNormal(n, 2, 1.0, rng);
    Tensor rhs = MatMul(a, x_true);
    auto x = SolveSpd(a, rhs);
    ASSERT_TRUE(x.ok());
    EXPECT_TRUE(AllClose(*x, x_true, 1e-8));
  }
}

TEST(SolveSpdTest, DimensionMismatchFails) {
  EXPECT_FALSE(SolveSpd(Tensor::Identity(3), Tensor(2, 1)).ok());
}

TEST(PowerIterationTest, DiagonalMatrixDominantEigenvalue) {
  CsrMatrix a = CsrMatrix::FromTriplets(
      3, 3, {{0, 0, 1.0}, {1, 1, 5.0}, {2, 2, 2.0}});
  EXPECT_NEAR(PowerIterationLargestEigenvalue(a), 5.0, 1e-6);
}

TEST(PowerIterationTest, SymmetricKnownSpectrum) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  CsrMatrix a = CsrMatrix::FromTriplets(
      2, 2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 2.0}});
  EXPECT_NEAR(PowerIterationLargestEigenvalue(a), 3.0, 1e-6);
}

TEST(PowerIterationTest, ZeroMatrixGivesZero) {
  CsrMatrix zero = CsrMatrix::FromTriplets(3, 3, {});
  EXPECT_NEAR(PowerIterationLargestEigenvalue(zero), 0.0, 1e-12);
}

/// PowerIterationLargestEigenvalue as it was before it reused buffers:
/// a transposed copy and fresh tensors every iteration.
double PowerIterationReference(const CsrMatrix& a, int iterations = 64) {
  const int n = a.rows();
  if (n == 0) return 0.0;
  const CsrMatrix at = CsrMatrix::FromDense(a.ToDense().Transposed());
  Tensor x(n, 1, 1.0 / std::sqrt(static_cast<double>(n)));
  double lambda = 0.0;
  for (int it = 0; it < iterations; ++it) {
    Tensor ax = a.MatMulDense(x);
    ax.AddInPlace(at.MatMulDense(x));
    ax.Scale(0.5);
    double num = 0, den = 0;
    for (int i = 0; i < n; ++i) {
      num += x.At(i, 0) * ax.At(i, 0);
      den += x.At(i, 0) * x.At(i, 0);
    }
    lambda = den > 0 ? num / den : 0.0;
    const double norm = ax.Norm();
    if (norm < 1e-30) return 0.0;
    ax.Scale(1.0 / norm);
    x = std::move(ax);
  }
  return std::fabs(lambda);
}

void ExpectSameBitsAsReference(const CsrMatrix& a, const std::string& what) {
  for (const int iterations : {1, 7, 64}) {
    const double want = PowerIterationReference(a, iterations);
    const double got = PowerIterationLargestEigenvalue(a, iterations);
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
        << what << " iterations=" << iterations << ": " << want << " vs "
        << got;
  }
}

TEST(PowerIterationTest, SameBitsAsTheAllocatingVersion) {
  Rng rng(17);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 1 + static_cast<int>(rng.UniformInt(40));
    std::vector<Triplet> trips;
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        if (rng.Uniform(0.0, 1.0) < 0.3)
          trips.push_back({i, j, rng.Normal(0.0, 1.0)});
    ExpectSameBitsAsReference(CsrMatrix::FromTriplets(n, n, trips),
                              "random n=" + std::to_string(n));
  }
  GeneratorConfig gen = WeiboLikeConfig();
  gen.num_cascades = 40;
  Rng cascade_rng(18);
  for (const Cascade& cascade : GenerateCascades(gen, cascade_rng)) {
    const int n = std::min(cascade.size(), 32);
    auto lap = CascadeLaplacian(cascade, 32);
    ASSERT_TRUE(lap.ok());
    ExpectSameBitsAsReference(*lap, "CasLaplacian n=" + std::to_string(n));
    ExpectSameBitsAsReference(UndirectedNormalizedLaplacian(cascade, 32),
                              "undirected n=" + std::to_string(n));
  }
  ExpectSameBitsAsReference(CsrMatrix::FromTriplets(1, 1, {{0, 0, -3.5}}),
                            "n=1");
  ExpectSameBitsAsReference(CsrMatrix::FromTriplets(1, 1, {}), "empty n=1");
  ExpectSameBitsAsReference(CsrMatrix::FromTriplets(5, 5, {}), "zero");
}

TEST(StationaryDistributionTest, TwoStateChain) {
  // P = [[0.9, 0.1], [0.5, 0.5]] -> phi = (5/6, 1/6).
  CsrMatrix p = CsrMatrix::FromTriplets(
      2, 2, {{0, 0, 0.9}, {0, 1, 0.1}, {1, 0, 0.5}, {1, 1, 0.5}});
  auto phi = StationaryDistribution(p.ToDense());
  ASSERT_TRUE(phi.ok());
  EXPECT_NEAR((*phi)[0], 5.0 / 6.0, 1e-8);
  EXPECT_NEAR((*phi)[1], 1.0 / 6.0, 1e-8);
}

TEST(StationaryDistributionTest, UniformChain) {
  const int n = 4;
  std::vector<Triplet> trips;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) trips.push_back({i, j, 1.0 / n});
  auto phi =
      StationaryDistribution(CsrMatrix::FromTriplets(n, n, trips).ToDense());
  ASSERT_TRUE(phi.ok());
  for (double v : *phi) EXPECT_NEAR(v, 1.0 / n, 1e-9);
}

TEST(StationaryDistributionTest, SumsToOne) {
  // Random stochastic matrix.
  Rng rng(31);
  const int n = 6;
  std::vector<Triplet> trips;
  for (int i = 0; i < n; ++i) {
    std::vector<double> row(n);
    double sum = 0;
    for (int j = 0; j < n; ++j) {
      row[j] = rng.Uniform() + 0.01;
      sum += row[j];
    }
    for (int j = 0; j < n; ++j) trips.push_back({i, j, row[j] / sum});
  }
  auto phi =
      StationaryDistribution(CsrMatrix::FromTriplets(n, n, trips).ToDense());
  ASSERT_TRUE(phi.ok());
  double total = 0;
  for (double v : *phi) {
    EXPECT_GT(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(StationaryDistributionTest, RejectsNonSquare) {
  EXPECT_FALSE(StationaryDistribution(
                   CsrMatrix::FromTriplets(2, 3, {}).ToDense())
                   .ok());
}

TEST(PrincipalComponentsTest, RecoversDominantDirection) {
  // Points stretched along (1, 1)/sqrt(2).
  Rng rng(41);
  Tensor x(200, 2);
  for (int i = 0; i < 200; ++i) {
    const double along = rng.Normal() * 10.0;
    const double across = rng.Normal() * 0.1;
    x.At(i, 0) = along + across;
    x.At(i, 1) = along - across;
  }
  Tensor comps = PrincipalComponents(x, 1);
  const double ratio = comps.At(0, 0) / comps.At(1, 0);
  EXPECT_NEAR(std::fabs(ratio), 1.0, 0.05);
}

TEST(PrincipalComponentsTest, ComponentsAreOrthonormal) {
  Rng rng(43);
  Tensor x = Tensor::RandomNormal(50, 5, 1.0, rng);
  Tensor comps = PrincipalComponents(x, 3);
  for (int a = 0; a < 3; ++a) {
    double norm = 0;
    for (int i = 0; i < 5; ++i) norm += comps.At(i, a) * comps.At(i, a);
    EXPECT_NEAR(norm, 1.0, 1e-6);
    for (int b = a + 1; b < 3; ++b) {
      double dot = 0;
      for (int i = 0; i < 5; ++i) dot += comps.At(i, a) * comps.At(i, b);
      EXPECT_NEAR(dot, 0.0, 1e-5);
    }
  }
}

}  // namespace
}  // namespace cascn

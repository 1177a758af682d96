// The filter-product kernels' two builds, baseline and AVX2, must give the
// same bits on every input: the cells' tape-oracle tests only ever run the
// set the host picks, which is the AVX2 one on any CPU that has it.

#include "nn/filter_kernels.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace cascn::nn::internal {
namespace {

// Widths 1..kMaxWidth reach every mix of the row kernel's 16-, 8-, 4- and
// 1-column tiles.
constexpr int kMaxWidth = 49;
constexpr int kMaxOrder = 3;

const double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::numeric_limits<double>::quiet_NaN();

class FilterKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!HostHasAvx2()) GTEST_SKIP() << "this CPU cannot run the AVX2 build";
  }

  Rng rng_{20190408};
};

/// +0.0, -0.0 or a uniform value in [-1, 1).
double Coefficient(Rng& rng) {
  switch (rng.UniformInt(8)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    default:
      return rng.Uniform(-1.0, 1.0);
  }
}

std::vector<double> Coefficients(Rng& rng, size_t count) {
  std::vector<double> v(count);
  for (double& x : v) x = Coefficient(rng);
  return v;
}

/// rows x cols with about a third of the entries stored, some of them
/// +0.0 or -0.0.
CsrMatrix RandomSparse(Rng& rng, int rows, int cols) {
  std::vector<Triplet> trips;
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      if (rng.UniformInt(3) == 0) trips.push_back({r, c, Coefficient(rng)});
  return CsrMatrix::FromTriplets(rows, cols, std::move(trips));
}

/// Row `row` (width wide, rows `stride` apart) of `m` set to inf and NaN.
void Poison(std::vector<double>& m, int row, int stride, int width) {
  double* x = m.data() + static_cast<size_t>(row) * stride;
  for (int j = 0; j < width; ++j) x[j] = j % 2 == 0 ? kInf : kNaN;
}

/// Runs `run` with each set of kernels and expects the bytes it returns to
/// match. Where the kernels must skip every poisoned weight, `finite` also
/// expects every value returned to be finite.
template <typename Run>
void ExpectSameBits(const std::string& what, bool finite, Run run) {
  const std::vector<double> baseline = run(kBaselineFilterKernels);
  const std::vector<double> avx2 = run(kAvx2FilterKernels);
  ASSERT_EQ(baseline.size(), avx2.size()) << what;
  ASSERT_FALSE(baseline.empty()) << what;
  EXPECT_EQ(std::memcmp(baseline.data(), avx2.data(),
                        baseline.size() * sizeof(double)),
            0)
      << what;
  if (!finite) return;
  for (double x : baseline) ASSERT_TRUE(std::isfinite(x)) << what;
}

std::string Shape(int order, int width) {
  return "K=" + std::to_string(order) + " width=" + std::to_string(width);
}

std::string Shape(int order, int width, ColumnRange columns) {
  return Shape(order, width) + " columns=[" + std::to_string(columns.begin) +
         "," + std::to_string(columns.end) + ")";
}

TEST(FilterKernelsDispatchTest, HostSetFollowsTheCpu) {
  EXPECT_EQ(&HostFilterKernels(),
            HostHasAvx2() ? &kAvx2FilterKernels : &kBaselineFilterKernels);
}

// Column kZero of the signal is +-0.0 on every row, so every T_k s is zero
// there and the product must skip weight row kZero, which holds inf and NaN.
TEST_F(FilterKernelsTest, FilterRowsMatch) {
  const int n = 9, rows = 7, in = 6, kZero = 2;
  for (int order = 1; order <= kMaxOrder; ++order) {
    std::vector<CsrMatrix> basis;
    for (int k = 0; k < order; ++k) basis.push_back(RandomSparse(rng_, n, n));
    std::vector<double> s = Coefficients(rng_, static_cast<size_t>(n) * in);
    for (int r = 0; r < n; ++r) s[r * in + kZero] = r % 2 == 0 ? 0.0 : -0.0;
    for (int width = 1; width <= kMaxWidth; ++width) {
      std::vector<double> packed =
          Coefficients(rng_, static_cast<size_t>(order) * in * width);
      for (int k = 0; k < order; ++k)
        Poison(packed, k * in + kZero, width, width);
      ExpectSameBits(Shape(order, width), true,
                     [&](const FilterKernels& kernels) {
                       std::vector<double> out(
                           static_cast<size_t>(rows) * width, 7.0);
                       std::vector<double> propagated;
                       kernels.filter_rows(basis, rows, s.data(), in, packed,
                                           width, out.data(), propagated);
                       out.insert(out.end(), propagated.begin(),
                                  propagated.end());
                       return out;
                     });
    }
  }
}

// The operators' entries outside the column range are not read, so weight
// rows of columns outside it hold inf and NaN.
TEST_F(FilterKernelsTest, FilterOperatorsMatch) {
  const int n = 9;
  const ColumnRange ranges[] = {{0, 0}, {4, 4}, {2, 6}, {1, n}, {0, n}};
  for (int order = 1; order <= kMaxOrder; ++order) {
    const CsrMatrix ops = RandomSparse(rng_, order * n, n);
    for (const ColumnRange columns : ranges)
      for (int rows : {n - 2, n})
        for (int width = 1; width <= kMaxWidth; ++width) {
          std::vector<double> packed =
              Coefficients(rng_, static_cast<size_t>(order) * n * width);
          for (int k = 0; k < order; ++k)
            for (int c = 0; c < n; ++c)
              if (c < columns.begin || c >= columns.end)
                Poison(packed, k * n + c, width, width);
          ExpectSameBits(Shape(order, width, columns), true,
                         [&](const FilterKernels& kernels) {
                           std::vector<double> out(
                               static_cast<size_t>(rows) * width, 7.0);
                           std::vector<std::pair<int, int>> runs;
                           kernels.filter_operators(ops, columns, order, rows,
                                                    packed, width, runs,
                                                    out.data());
                           return out;
                         });
        }
  }
}

// Row kZero of P is +-0.0, so the product must skip row kZero of A, which
// holds inf and NaN.
TEST_F(FilterKernelsTest, ProductsTransposeAMatch) {
  const int rows = 8, in = 6, kZero = 3;
  std::vector<double> p = Coefficients(rng_, static_cast<size_t>(rows) * in);
  for (int i = 0; i < in; ++i) p[kZero * in + i] = i % 2 == 0 ? -0.0 : 0.0;
  for (int width = 1; width <= kMaxWidth; ++width) {
    const int stride = width + 3;
    std::vector<double> a =
        Coefficients(rng_, static_cast<size_t>(rows) * stride);
    Poison(a, kZero, stride, width);
    ExpectSameBits(Shape(1, width), true, [&](const FilterKernels& kernels) {
      std::vector<double> out(static_cast<size_t>(in) * width, 7.0);
      kernels.products_transpose_a(p.data(), rows, in, a.data(), stride,
                                   width, out.data());
      return out;
    });
  }
}

// Skips nothing, so no weight is poisoned. The width of each gate's block
// is d.
TEST_F(FilterKernelsTest, ProductsTransposeBMatch) {
  const int rows = 5;
  for (int count = 1; count <= 4; ++count)
    for (int d = 1; d <= kMaxWidth; ++d) {
      const int stride = count * d + 2;
      const std::vector<double> a =
          Coefficients(rng_, static_cast<size_t>(rows) * stride);
      const std::vector<double> w =
          Coefficients(rng_, static_cast<size_t>(count) * d * d);
      const double* wt[4];
      for (int j = 0; j < count; ++j)
        wt[j] = w.data() + static_cast<size_t>(j) * d * d;
      ExpectSameBits(
          "count=" + std::to_string(count) + " d=" + std::to_string(d), false,
          [&](const FilterKernels& kernels) {
            std::vector<double> s(static_cast<size_t>(rows) * count * d, 7.0);
            kernels.products_transpose_b(a.data(), rows, stride, count, d, wt,
                                         s.data());
            return s;
          });
    }
}

// A row of s whose row of t has no entry in the column range is not read,
// so it holds inf and NaN.
TEST_F(FilterKernelsTest, ScatterTransposeMatches) {
  const int n = 9;
  const ColumnRange ranges[] = {{0, 0}, {4, 4}, {2, 6}, {1, n}, {0, n}};
  for (int order = 1; order <= kMaxOrder; ++order) {
    const CsrMatrix t = RandomSparse(rng_, order * n, n);
    const int first = (order - 1) * n;
    for (const ColumnRange columns : ranges)
      for (int rows : {n - 2, n})
        for (int width = 1; width <= kMaxWidth; ++width) {
          const int stride = width + 1;
          std::vector<double> s =
              Coefficients(rng_, static_cast<size_t>(rows) * stride);
          for (int r = 0; r < rows; ++r) {
            const auto [begin, end] = t.EntriesIn(first + r, columns);
            if (begin == end) Poison(s, r, stride, width);
          }
          ExpectSameBits(Shape(order, width, columns), true,
                         [&](const FilterKernels& kernels) {
                           std::vector<double> out(
                               static_cast<size_t>(n) * width, 7.0);
                           kernels.scatter_transpose(t, first, rows, columns,
                                                     s.data(), stride, width,
                                                     out.data());
                           return out;
                         });
        }
  }
}

}  // namespace
}  // namespace cascn::nn::internal

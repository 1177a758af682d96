// The filter-product and gate kernels' two builds, baseline and AVX2, must
// give the same bits on every input: the cells' tape-oracle tests only ever
// run the set the host picks, which is the AVX2 one on any CPU that has it.
// The gate passes must also give, element by element, the bits of the
// scalar formula over the scalar Sigmoid and Tanh, which the padding table
// and the tape oracles use.

#include "nn/filter_kernels.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
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

// ---- The gate passes -------------------------------------------------------

/// Gate widths 1..kMaxGateWidth reach one to three four-lane groups, each
/// with every tail length.
constexpr int kMaxGateWidth = 12;

/// A pre-activation term: mostly within the range where the gates are not
/// yet saturated, some far beyond it, a few +-0.0, inf or NaN (rare enough
/// that most elements read none).
double Term(Rng& rng) {
  switch (rng.UniformInt(256)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return kInf;
    case 3:
      return kNaN;
    default:
      return rng.UniformInt(8) == 0 ? rng.Uniform(-800.0, 800.0)
                                    : rng.Uniform(-6.0, 6.0);
  }
}

std::vector<double> Terms(Rng& rng, size_t count) {
  std::vector<double> v(count);
  for (double& x : v) x = Term(rng);
  return v;
}

/// Expects `got` to hold `want`'s bytes, naming the first element that
/// differs; a NaN matches any NaN. Which NaN an operation on a NaN returns
/// depends on which operand the compiler puts first, which IEEE leaves
/// open, so two builds of one loop may differ there and nowhere else.
void ExpectBytes(const std::vector<double>& want,
                 const std::vector<double>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t e = 0; e < want.size(); ++e) {
    if (std::isnan(want[e]) && std::isnan(got[e])) continue;
    ASSERT_EQ(std::memcmp(&want[e], &got[e], sizeof(double)), 0)
        << what << ": element " << e << " is " << got[e] << ", want "
        << want[e];
  }
}

/// Runs `run` with each set of kernels the CPU can run, with keep blocks
/// and without, and expects the bytes of `oracle`, the scalar formula; its
/// last `kept` elements are the keep blocks.
template <typename Run>
void ExpectScalarBits(const std::string& what,
                      const std::vector<double>& oracle, size_t kept,
                      Run run) {
  const std::vector<double> without_keep(oracle.begin(),
                                         oracle.end() - kept);
  std::vector<const FilterKernels*> sets = {&kBaselineFilterKernels};
  if (HostHasAvx2()) sets.push_back(&kAvx2FilterKernels);
  for (const FilterKernels* kernels : sets) {
    const std::string name =
        what + (kernels == &kBaselineFilterKernels ? " baseline" : " avx2");
    ExpectBytes(oracle, run(*kernels, true), name);
    ExpectBytes(without_keep, run(*kernels, false), name + " without keep");
  }
}

// Rows from `rows` on are not the pass's: their h_t, c and keep entries
// must keep the 7.0 they start with.
TEST(GateKernelsTest, LstmGatesAreTheScalarFormulaInEveryBuild) {
  Rng rng(12);
  const int n = 5, rows = 4;
  for (int d = 1; d <= kMaxGateWidth; ++d) {
    const size_t nd = static_cast<size_t>(n) * d;
    const std::vector<double> xs = Terms(rng, 4 * nd), hs = Terms(rng, 4 * nd),
                              v = Terms(rng, 3 * nd), b = Terms(rng, 4 * d),
                              c0 = Terms(rng, nd);
    const size_t kept = LstmGates::kNumKept * nd;
    // h_t, then c_t, then the keep blocks.
    std::vector<double> oracle(2 * nd + kept, 7.0);
    std::copy(c0.begin(), c0.end(), oracle.begin() + nd);
    double* keep = oracle.data() + 2 * nd;
    for (int r = 0; r < rows; ++r)
      for (int j = 0; j < d; ++j) {
        const size_t e = static_cast<size_t>(r) * d + j, row = r * 4 * d;
        auto pre = [&](int gate) {
          return (xs[row + gate * d + j] + hs[row + gate * d + j]) +
                 b[gate * d + j];
        };
        const double c_prev = c0[e];
        const double i = Sigmoid(pre(0) + v[e] * c_prev);
        const double f = Sigmoid(pre(1) + v[nd + e] * c_prev);
        const double g = Tanh(pre(2));
        const double c_next = f * c_prev + i * g;
        const double o = Sigmoid(pre(3) + v[2 * nd + e] * c_next);
        const double tanh_c = Tanh(c_next);
        oracle[e] = o * tanh_c;
        oracle[nd + e] = c_next;
        const double kept_values[] = {i, f, g, o, tanh_c, xs[row + 3 * d + j]};
        for (int block = 0; block < LstmGates::kNumKept; ++block)
          keep[block * nd + e] = kept_values[block];
      }
    ExpectScalarBits(
        "d=" + std::to_string(d), oracle, kept,
        [&](const FilterKernels& kernels, bool with_keep) {
          std::vector<double> out(2 * nd + (with_keep ? kept : 0), 7.0);
          std::copy(c0.begin(), c0.end(), out.begin() + nd);
          const LstmGates gates = {n,
                                   d,
                                   xs.data(),
                                   hs.data(),
                                   v.data(),
                                   v.data() + nd,
                                   v.data() + 2 * nd,
                                   b.data(),
                                   b.data() + d,
                                   b.data() + 2 * d,
                                   b.data() + 3 * d,
                                   out.data() + nd};
          kernels.lstm_gates(gates, rows, out.data(),
                             with_keep ? out.data() + 2 * nd : nullptr);
          return out;
        });
  }
}

TEST(GateKernelsTest, GruGatesAreTheScalarFormulaInEveryBuild) {
  Rng rng(13);
  const int n = 5, rows = 4;
  for (int d = 1; d <= kMaxGateWidth; ++d) {
    const size_t nd = static_cast<size_t>(n) * d;
    const std::vector<double> xs = Terms(rng, 3 * nd), hs = Terms(rng, 2 * nd),
                              hn = Terms(rng, nd), b = Terms(rng, 3 * d),
                              h = Terms(rng, nd);
    const size_t kept = GruGates::kNumKept * nd;
    // h_t, z, r (.) h, then the keep blocks.
    std::vector<double> oracle(3 * nd + kept, 7.0);
    double* keep = oracle.data() + 3 * nd;
    for (int r = 0; r < rows; ++r)
      for (int j = 0; j < d; ++j) {
        const size_t e = static_cast<size_t>(r) * d + j;
        const double* xr = xs.data() + r * 3 * d;
        const double* hr = hs.data() + r * 2 * d;
        const double reset = Sigmoid((xr[j] + hr[j]) + b[j]);
        const double z = Sigmoid((xr[d + j] + hr[d + j]) + b[d + j]);
        const double cand = Tanh((xr[2 * d + j] + hn[e]) + b[2 * d + j]);
        oracle[e] = cand + z * (h[e] - cand);
        oracle[nd + e] = z;
        oracle[2 * nd + e] = reset * h[e];
        const double kept_values[] = {reset, z, cand, xr[j], xr[2 * d + j]};
        for (int block = 0; block < GruGates::kNumKept; ++block)
          keep[block * nd + e] = kept_values[block];
      }
    ExpectScalarBits(
        "d=" + std::to_string(d), oracle, kept,
        [&](const FilterKernels& kernels, bool with_keep) {
          std::vector<double> out(3 * nd + (with_keep ? kept : 0), 7.0);
          double* keep_out = with_keep ? out.data() + 3 * nd : nullptr;
          const GruGates gates = {n,         d,
                                  xs.data(), hs.data(),
                                  hn.data(), b.data(),
                                  b.data() + d, b.data() + 2 * d,
                                  out.data() + nd, out.data() + 2 * nd};
          kernels.gru_reset_gate(gates, rows, h.data(), keep_out);
          kernels.gru_output(gates, rows, h.data(), out.data(), keep_out);
          return out;
        });
  }
}

}  // namespace
}  // namespace cascn::nn::internal

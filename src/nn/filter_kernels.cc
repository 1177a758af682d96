#include "nn/filter_kernels.h"

#include <algorithm>

// The AVX2 wrappers' target. Elsewhere than on x86 they compile as the
// baseline wrappers do.
#if defined(__x86_64__) || defined(__i386__)
#define CASCN_TARGET_AVX2 [[gnu::target("avx2")]]
#else
#define CASCN_TARGET_AVX2
#endif

namespace cascn::nn::internal {

namespace {

// Every function a kernel body calls to do arithmetic is always inlined, so
// it is compiled for the target of the wrapper it lands in: a call out of an
// AVX2 wrapper would run baseline code.

/// dst (width) += v src.
[[gnu::always_inline]] inline void AddScaledRow(double v,
                                                const double* __restrict src,
                                                int width,
                                                double* __restrict dst) {
  for (int j = 0; j < width; ++j) dst[j] += v * src[j];
}

/// Columns [c, c + kCols) of FilterRow's output row, summed in registers.
/// (`total` starts zeroed only so the compiler can see it set: order >= 1,
/// and order 0's sum overwrites it.) Weights and output go through
/// pointers moved to column c, not w[c + i]: GCC rewrites the tile loop's
/// test c + kCols <= width as c + kCols - 1 < width and reuses that sum as
/// the last column's index, which the vectorizer then no longer sees next
/// to the others, so each tile's last pair of columns went scalar.
/// FilterTile and FilterRow are always inlined: left to GCC's limits
/// (max-inline-insns-single, large-stack-frame-growth), FilterOperators
/// once called both out of line and its product ran ~10% slower.
template <int kCols, typename Entries>
[[gnu::always_inline]] inline void FilterTile(int order, int c,
                                              Entries& entries,
                                              double* __restrict out) {
  double total[kCols] = {};
  for (int k = 0; k < order; ++k) {
    double sum[kCols];
    for (int i = 0; i < kCols; ++i) sum[i] = 0.0;
    entries(k, [&] [[gnu::always_inline]] (double a,
                                           const double* __restrict w) {
      w += c;
      for (int i = 0; i < kCols; ++i) sum[i] += a * w[i];
    });
    for (int i = 0; i < kCols; ++i)
      total[i] = k == 0 ? sum[i] : total[i] + sum[i];
  }
  out += c;
  for (int i = 0; i < kCols; ++i) out[i] = total[i];
}

/// The row kernel of every filter product: out (width) = sum_k sum_e
/// a_{k,e} w_{k,e} over the `order` Chebyshev orders, for the entries
/// `entries(k, add)` hands over in order as add(a, w), w a row of `width`
/// weights. It is the tape ops' arithmetic, element by element: each
/// order's sum starts at +0.0, as a product's zero-filled output does (so
/// a first term of -0.0 adds to +0.0), adds the entries in the order they
/// come, and the orders add in k order. Which coefficients to skip is the
/// entries' choice: exactly those the tape op a product stands for skipped.
/// Columns are summed 16, then 8, 4 and 1 at a time in registers across
/// every entry of every order, and each output element is written once.
/// Sixteen columns are eight SSE2 accumulators (four AVX2 ones), enough
/// independent adds to hide the add latency that fewer leave exposed, and
/// they walk the entries once where 8-column tiles walk them twice.
template <typename Entries>
[[gnu::always_inline]] inline void FilterRow(int order, int width,
                                             Entries&& entries,
                                             double* __restrict out) {
  int c = 0;
  for (; c + 16 <= width; c += 16) FilterTile<16>(order, c, entries, out);
  for (; c + 8 <= width; c += 8) FilterTile<8>(order, c, entries, out);
  for (; c + 4 <= width; c += 4) FilterTile<4>(order, c, entries, out);
  for (; c < width; ++c) FilterTile<1>(order, c, entries, out);
}

// ---- Kernel bodies: see FilterKernels for what each computes. -------------

[[gnu::always_inline]] inline void FilterRowsBody(
    const std::vector<CsrMatrix>& basis, int rows, const double* s, int in,
    const std::vector<double>& packed, int width, double* out,
    std::vector<double>& propagated) {
  const size_t block = static_cast<size_t>(rows) * in;
  propagated.assign(basis.size() * block, 0.0);
  for (size_t k = 0; k < basis.size(); ++k) {
    const auto& offsets = basis[k].row_offsets();
    const auto& cols = basis[k].col_indices();
    const auto& vals = basis[k].values();
    double* pk = propagated.data() + k * block;
    for (int r = 0; r < rows; ++r) {
      double* prow = pk + static_cast<size_t>(r) * in;
      for (int e = offsets[r]; e < offsets[r + 1]; ++e)
        AddScaledRow(vals[e], s + static_cast<size_t>(cols[e]) * in, in, prow);
    }
  }
  const size_t filter = static_cast<size_t>(in) * width;
  for (int r = 0; r < rows; ++r) {
    const double* prow = propagated.data() + static_cast<size_t>(r) * in;
    FilterRow(static_cast<int>(basis.size()), width,
              [&] [[gnu::always_inline]] (int k, auto&& add) {
                const double* a = prow + k * block;
                const double* w = packed.data() + k * filter;
                for (int p = 0; p < in; ++p) {
                  if (a[p] != 0.0)
                    add(a[p], w + static_cast<size_t>(p) * width);
                }
              },
              out + static_cast<size_t>(r) * width);
  }
}

[[gnu::always_inline]] inline void FilterOperatorsBody(
    const CsrMatrix& ops, ColumnRange columns, int order, int rows,
    const std::vector<double>& packed, int width,
    std::vector<std::pair<int, int>>& runs, double* out) {
  const int n = ops.cols();
  const auto& cols = ops.col_indices();
  const auto& vals = ops.values();
  const size_t filter = static_cast<size_t>(n) * width;
  // Row r of P_k is entries [runs[i].first, runs[i].second) of ops, for
  // i = k rows + r.
  runs.resize(static_cast<size_t>(order) * rows);
  for (int k = 0; k < order; ++k)
    for (int r = 0; r < rows; ++r)
      runs[k * rows + r] = ops.EntriesIn(k * n + r, columns);
  for (int r = 0; r < rows; ++r) {
    FilterRow(order, width,
              [&] [[gnu::always_inline]] (int k, auto&& add) {
                const std::pair<int, int> run = runs[k * rows + r];
                const double* w = packed.data() + k * filter;
                for (int e = run.first; e < run.second; ++e)
                  add(vals[e], w + static_cast<size_t>(cols[e]) * width);
              },
              out + static_cast<size_t>(r) * width);
  }
}

[[gnu::always_inline]] inline void ProductsTransposeABody(
    const double* p, int rows, int in, const double* a, int stride, int width,
    double* out) {
  for (int i = 0; i < in; ++i) {
    FilterRow(1, width,
              [&] [[gnu::always_inline]] (int, auto&& add) {
                for (int r = 0; r < rows; ++r) {
                  const double x = p[static_cast<size_t>(r) * in + i];
                  if (x != 0.0) add(x, a + static_cast<size_t>(r) * stride);
                }
              },
              out + static_cast<size_t>(i) * width);
  }
}

/// The entries step a pointer along W_j^T rather than index it by p: GCC
/// vectorizes a loop with an index along p, gathering every column's
/// weights, where the pointer loop keeps the columns in vector registers
/// and runs faster.
[[gnu::always_inline]] inline void ProductsTransposeBBody(
    const double* a, int rows, int stride, int count, int d,
    const double* const* wt, double* s) {
  const int width = count * d;
  const size_t dd = static_cast<size_t>(d) * d;
  for (int r = 0; r < rows; ++r)
    for (int j = 0; j < count; ++j) {
      const double* arow = a + static_cast<size_t>(r) * stride + j * d;
      FilterRow(1, d,
                [&] [[gnu::always_inline]] (int, auto&& add) {
                  const double* x = arow;
                  for (const double* w = wt[j]; w != wt[j] + dd; w += d)
                    add(*x++, w);
                },
                s + static_cast<size_t>(r) * width + j * d);
    }
}

[[gnu::always_inline]] inline void ScatterTransposeBody(
    const CsrMatrix& t, int first, int rows, ColumnRange columns,
    const double* s, int stride, int width, double* out) {
  std::fill(out, out + static_cast<size_t>(t.cols()) * width, 0.0);
  const auto& cols = t.col_indices();
  const auto& vals = t.values();
  for (int r = 0; r < rows; ++r) {
    const double* srow = s + static_cast<size_t>(r) * stride;
    const auto [begin, end] = t.EntriesIn(first + r, columns);
    for (int e = begin; e < end; ++e)
      AddScaledRow(vals[e], srow, width,
                   out + static_cast<size_t>(cols[e]) * width);
  }
}

}  // namespace

// ---- The wrappers: each body once per target. -----------------------------
//
// They have external linkage so that their symbols can be found in the
// library (CI checks that the AVX2 ones are there).

void FilterRowsBaseline(const std::vector<CsrMatrix>& basis, int rows,
                        const double* s, int in,
                        const std::vector<double>& packed, int width,
                        double* out, std::vector<double>& propagated) {
  FilterRowsBody(basis, rows, s, in, packed, width, out, propagated);
}

CASCN_TARGET_AVX2 void FilterRowsAvx2(const std::vector<CsrMatrix>& basis,
                                      int rows, const double* s, int in,
                                      const std::vector<double>& packed,
                                      int width, double* out,
                                      std::vector<double>& propagated) {
  FilterRowsBody(basis, rows, s, in, packed, width, out, propagated);
}

void FilterOperatorsBaseline(const CsrMatrix& ops, ColumnRange columns,
                             int order, int rows,
                             const std::vector<double>& packed, int width,
                             std::vector<std::pair<int, int>>& runs,
                             double* out) {
  FilterOperatorsBody(ops, columns, order, rows, packed, width, runs, out);
}

CASCN_TARGET_AVX2 void FilterOperatorsAvx2(
    const CsrMatrix& ops, ColumnRange columns, int order, int rows,
    const std::vector<double>& packed, int width,
    std::vector<std::pair<int, int>>& runs, double* out) {
  FilterOperatorsBody(ops, columns, order, rows, packed, width, runs, out);
}

void ProductsTransposeABaseline(const double* p, int rows, int in,
                                const double* a, int stride, int width,
                                double* out) {
  ProductsTransposeABody(p, rows, in, a, stride, width, out);
}

CASCN_TARGET_AVX2 void ProductsTransposeAAvx2(const double* p, int rows,
                                              int in, const double* a,
                                              int stride, int width,
                                              double* out) {
  ProductsTransposeABody(p, rows, in, a, stride, width, out);
}

void ProductsTransposeBBaseline(const double* a, int rows, int stride,
                                int count, int d, const double* const* wt,
                                double* s) {
  ProductsTransposeBBody(a, rows, stride, count, d, wt, s);
}

CASCN_TARGET_AVX2 void ProductsTransposeBAvx2(const double* a, int rows,
                                              int stride, int count, int d,
                                              const double* const* wt,
                                              double* s) {
  ProductsTransposeBBody(a, rows, stride, count, d, wt, s);
}

void ScatterTransposeBaseline(const CsrMatrix& t, int first, int rows,
                              ColumnRange columns, const double* s,
                              int stride, int width, double* out) {
  ScatterTransposeBody(t, first, rows, columns, s, stride, width, out);
}

CASCN_TARGET_AVX2 void ScatterTransposeAvx2(const CsrMatrix& t, int first,
                                            int rows, ColumnRange columns,
                                            const double* s, int stride,
                                            int width, double* out) {
  ScatterTransposeBody(t, first, rows, columns, s, stride, width, out);
}

const FilterKernels kBaselineFilterKernels = {
    FilterRowsBaseline, FilterOperatorsBaseline, ProductsTransposeABaseline,
    ProductsTransposeBBaseline, ScatterTransposeBaseline};

const FilterKernels kAvx2FilterKernels = {
    FilterRowsAvx2, FilterOperatorsAvx2, ProductsTransposeAAvx2,
    ProductsTransposeBAvx2, ScatterTransposeAvx2};

bool HostHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const FilterKernels& HostFilterKernels() {
  static const bool avx2 = HostHasAvx2();
  return avx2 ? kAvx2FilterKernels : kBaselineFilterKernels;
}

}  // namespace cascn::nn::internal

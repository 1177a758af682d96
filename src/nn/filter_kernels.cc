#include "nn/filter_kernels.h"

#include <algorithm>
#include <cstring>

#include "common/math_util.h"

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

// ---- The gate passes -------------------------------------------------------
//
// Each row's d columns go through a vector V of lanes (two in the baseline
// build, four in the AVX2 one), the last group filled with zeros; every
// lane gets the operations, in the order, of the scalar formula in
// LstmGates / GruGates.

template <typename V>
constexpr int kLanes = sizeof(V) / sizeof(double);

/// Lanes [0, count) of v from p; the rest zero.
template <typename V>
[[gnu::always_inline]] inline void LoadLanes(const double* p, int count,
                                             V& v) {
  if (count == kLanes<V>) {
    std::memcpy(&v, p, sizeof(V));
    return;
  }
  v = V{};
  for (int l = 0; l < count; ++l) v[l] = p[l];
}

/// Lanes [0, count) of v to p.
template <typename V>
[[gnu::always_inline]] inline void StoreLanes(const V& v, int count,
                                              double* p) {
  if (count == kLanes<V>) {
    std::memcpy(p, &v, sizeof(V));
    return;
  }
  for (int l = 0; l < count; ++l) p[l] = v[l];
}

/// How many vectors of columns the LSTM gate pass runs side by side (the
/// statement loops below unroll up to four).
constexpr int kGateGroup = 3;
static_assert(kGateGroup >= 1 && kGateGroup <= 4);

/// The LSTM gate pass over the rows x column vectors, taken in groups of
/// kGateGroup vectors in row-major order (a group may span two rows; the
/// last may be short, its missing vectors all-zero lanes that are never
/// stored). Each statement runs on every vector of a group before the
/// next, so the vectors' exp and divide chains are independent work side
/// by side, as the tape runs each gate op over the whole block. Every lane
/// gets the operations of the one-vector pass, so the same bits.
template <typename V>
[[gnu::always_inline]] inline void LstmGatesBody(const LstmGates& g,
                                                 int rows, double* h_next,
                                                 double* keep) {
  constexpr int kG = kGateGroup;
  const int d = g.d;
  const size_t nd = static_cast<size_t>(g.n) * d;
  int r = 0, j = 0;
  while (r < rows) {
    // Vector m: row r's columns [col, col + count), at g.xs / g.hs + term
    // (gate 0) and at e in the n x d blocks; count 0 past the last row.
    size_t term[kG] = {}, e[kG] = {};
    int col[kG] = {}, count[kG] = {};
    for (int m = 0; m < kG && r < rows; ++m) {
      term[m] = static_cast<size_t>(r) * 4 * d + j;
      e[m] = static_cast<size_t>(r) * d + j;
      col[m] = j;
      count[m] = std::min(kLanes<V>, d - j);
      j += kLanes<V>;
      if (j >= d) {
        j = 0;
        ++r;
      }
    }
    // (x + h) + b of gate q (0-3 for i, f, c, o), plus v (.) c unless v is
    // null (the candidate has no peephole), for every vector.
    auto gate = [&] [[gnu::always_inline]] (int q, const double* b,
                                            const double* v, const V* c,
                                            V* out) {
#pragma GCC unroll 4
      for (int m = 0; m < kG; ++m) {
        V x, h, bias;
        LoadLanes(g.xs + term[m] + q * d, count[m], x);
        LoadLanes(g.hs + term[m] + q * d, count[m], h);
        LoadLanes(b + col[m], count[m], bias);
        out[m] = (x + h) + bias;
      }
      if (v == nullptr) return;
#pragma GCC unroll 4
      for (int m = 0; m < kG; ++m) {
        V peephole;
        LoadLanes(v + e[m], count[m], peephole);
        out[m] = out[m] + peephole * c[m];
      }
    };
    auto store = [&] [[gnu::always_inline]] (const V* v, double* p) {
#pragma GCC unroll 4
      for (int m = 0; m < kG; ++m) StoreLanes(v[m], count[m], p + e[m]);
    };
    V c_prev[kG], i[kG], f[kG], cand[kG], c_next[kG], o[kG], tanh_c[kG];
#pragma GCC unroll 4
    for (int m = 0; m < kG; ++m) LoadLanes(g.c + e[m], count[m], c_prev[m]);
    gate(0, g.b_i, g.v_i, c_prev, i);
#pragma GCC unroll 4
    for (int m = 0; m < kG; ++m) SigmoidLanes(i[m]);
    gate(1, g.b_f, g.v_f, c_prev, f);
#pragma GCC unroll 4
    for (int m = 0; m < kG; ++m) SigmoidLanes(f[m]);
    gate(2, g.b_c, nullptr, nullptr, cand);
#pragma GCC unroll 4
    for (int m = 0; m < kG; ++m) TanhLanes(cand[m]);
#pragma GCC unroll 4
    for (int m = 0; m < kG; ++m) c_next[m] = f[m] * c_prev[m] + i[m] * cand[m];
    gate(3, g.b_o, g.v_o, c_next, o);
#pragma GCC unroll 4
    for (int m = 0; m < kG; ++m) {
      SigmoidLanes(o[m]);
      tanh_c[m] = c_next[m];
    }
#pragma GCC unroll 4
    for (int m = 0; m < kG; ++m) TanhLanes(tanh_c[m]);
    store(c_next, g.c);
#pragma GCC unroll 4
    for (int m = 0; m < kG; ++m)
      StoreLanes(o[m] * tanh_c[m], count[m], h_next + e[m]);
    if (keep != nullptr) {
      V x_o[kG];
#pragma GCC unroll 4
      for (int m = 0; m < kG; ++m)
        LoadLanes(g.xs + term[m] + 3 * d, count[m], x_o[m]);
      store(i, keep + LstmGates::kI * nd);
      store(f, keep + LstmGates::kF * nd);
      store(cand, keep + LstmGates::kG * nd);
      store(o, keep + LstmGates::kO * nd);
      store(tanh_c, keep + LstmGates::kTanhC * nd);
      store(x_o, keep + LstmGates::kXo * nd);
    }
  }
}

template <typename V>
[[gnu::always_inline]] inline void GruResetGateBody(const GruGates& g,
                                                    int rows, const double* h,
                                                    double* keep) {
  const int d = g.d;
  const size_t nd = static_cast<size_t>(g.n) * d;
  for (int r = 0; r < rows; ++r) {
    const double* xr = g.xs + static_cast<size_t>(r) * 3 * d;
    const double* hr = g.hs + static_cast<size_t>(r) * 2 * d;
    for (int j = 0; j < d; j += kLanes<V>) {
      const int count = std::min(kLanes<V>, d - j);
      const size_t e = static_cast<size_t>(r) * d + j;
      V x_r, x_z, h_r, h_z, b_r, b_z, h_prev;
      LoadLanes(xr + j, count, x_r);
      LoadLanes(xr + d + j, count, x_z);
      LoadLanes(hr + j, count, h_r);
      LoadLanes(hr + d + j, count, h_z);
      LoadLanes(g.b_r + j, count, b_r);
      LoadLanes(g.b_z + j, count, b_z);
      LoadLanes(h + e, count, h_prev);
      V reset = (x_r + h_r) + b_r;
      SigmoidLanes(reset);
      V z = (x_z + h_z) + b_z;
      SigmoidLanes(z);
      StoreLanes(z, count, g.z + e);
      StoreLanes(reset * h_prev, count, g.rh + e);
      if (keep != nullptr) {
        StoreLanes(reset, count, keep + GruGates::kR * nd + e);
        StoreLanes(x_r, count, keep + GruGates::kXr * nd + e);
      }
    }
  }
}

template <typename V>
[[gnu::always_inline]] inline void GruOutputBody(const GruGates& g, int rows,
                                                 const double* h,
                                                 double* h_next,
                                                 double* keep) {
  const int d = g.d;
  const size_t nd = static_cast<size_t>(g.n) * d;
  for (int r = 0; r < rows; ++r) {
    const double* xr = g.xs + static_cast<size_t>(r) * 3 * d;
    for (int j = 0; j < d; j += kLanes<V>) {
      const int count = std::min(kLanes<V>, d - j);
      const size_t e = static_cast<size_t>(r) * d + j;
      V x_n, hn, b_n, z, h_prev;
      LoadLanes(xr + 2 * d + j, count, x_n);
      LoadLanes(g.hn + e, count, hn);
      LoadLanes(g.b_n + j, count, b_n);
      LoadLanes(g.z + e, count, z);
      LoadLanes(h + e, count, h_prev);
      V cand = (x_n + hn) + b_n;
      TanhLanes(cand);
      StoreLanes(cand + z * (h_prev - cand), count, h_next + e);
      if (keep != nullptr) {
        StoreLanes(z, count, keep + GruGates::kZ * nd + e);
        StoreLanes(cand, count, keep + GruGates::kN * nd + e);
        StoreLanes(x_n, count, keep + GruGates::kXn * nd + e);
      }
    }
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

void LstmGatesBaseline(const LstmGates& g, int rows, double* h_next,
                       double* keep) {
  LstmGatesBody<Lanes2>(g, rows, h_next, keep);
}

CASCN_TARGET_AVX2 void LstmGatesAvx2(const LstmGates& g, int rows,
                                     double* h_next, double* keep) {
  LstmGatesBody<Lanes4>(g, rows, h_next, keep);
}

void GruResetGateBaseline(const GruGates& g, int rows, const double* h,
                          double* keep) {
  GruResetGateBody<Lanes2>(g, rows, h, keep);
}

CASCN_TARGET_AVX2 void GruResetGateAvx2(const GruGates& g, int rows,
                                        const double* h, double* keep) {
  GruResetGateBody<Lanes4>(g, rows, h, keep);
}

void GruOutputBaseline(const GruGates& g, int rows, const double* h,
                       double* h_next, double* keep) {
  GruOutputBody<Lanes2>(g, rows, h, h_next, keep);
}

CASCN_TARGET_AVX2 void GruOutputAvx2(const GruGates& g, int rows,
                                     const double* h, double* h_next,
                                     double* keep) {
  GruOutputBody<Lanes4>(g, rows, h, h_next, keep);
}

const FilterKernels kBaselineFilterKernels = {
    FilterRowsBaseline,       FilterOperatorsBaseline,
    ProductsTransposeABaseline, ProductsTransposeBBaseline,
    ScatterTransposeBaseline, LstmGatesBaseline,
    GruResetGateBaseline,     GruOutputBaseline};

const FilterKernels kAvx2FilterKernels = {
    FilterRowsAvx2,       FilterOperatorsAvx2, ProductsTransposeAAvx2,
    ProductsTransposeBAvx2, ScatterTransposeAvx2, LstmGatesAvx2,
    GruResetGateAvx2,     GruOutputAvx2};

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

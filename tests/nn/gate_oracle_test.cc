// exp, tanh, the sigmoid and the LSTM gate pass against verbatim copies of
// their straight-line implementation: both clamps and two factors of 2^k in
// every exp, both tanh forms computed and selected per lane, and the gate
// pass one vector of columns at a time. Whatever the library skips or
// reorders to go faster, every lane must keep this copy's bits, in the
// baseline build and in the AVX2 one.

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "nn/filter_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#define CASCN_TEST_TARGET_AVX2 [[gnu::target("avx2")]]
#else
#define CASCN_TEST_TARGET_AVX2
#endif

namespace cascn::nn::internal {
namespace {

// ---------------------------------------------------------------------------
// The oracle: the straight-line lanes functions and gate pass, copied
// verbatim; only the names carry an Oracle prefix, so that overload
// resolution cannot pick the library's.

template <int kBytes>
struct OracleLaneBitsOf;
template <>
struct OracleLaneBitsOf<16> {
  using type = uint64_t __attribute__((vector_size(16)));
};
template <>
struct OracleLaneBitsOf<32> {
  using type = uint64_t __attribute__((vector_size(32)));
};
template <typename V>
using OracleLaneBits = typename OracleLaneBitsOf<sizeof(V)>::type;

inline constexpr double kOracleRoundShift = 0x1.8p52;
inline constexpr uint64_t kOracleSignBit = uint64_t{1} << 63;

template <typename V>
[[gnu::always_inline]] inline void OraclePow2(V& shifted) {
  shifted = reinterpret_cast<V>(
      (reinterpret_cast<OracleLaneBits<V>>(shifted) + 1023) << 52);
}

template <typename V>
[[gnu::always_inline]] inline void OracleExpLanes(V& x) {
  constexpr double kRoundShift = kOracleRoundShift;
  constexpr double kInvLn2 = 0x1.71547652b82fep0;
  // ln2 in two parts; kLn2Hi has 21 trailing zero bits, so k * kLn2Hi is
  // exact for every |k| < 2^11.
  constexpr double kLn2Hi = 0x1.62e42feep-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  constexpr double kP1 = 0x1.555555555553ep-3;
  constexpr double kP2 = -0x1.6c16c16bebd93p-9;
  constexpr double kP3 = 0x1.1566aaf25de2cp-14;
  constexpr double kP4 = -0x1.bbd41c5d26bf1p-20;
  constexpr double kP5 = 0x1.6376972bea4d0p-25;
  // Comparisons are false for NaN, which therefore passes through.
  x = x < -746.0 ? V{} - 746.0 : x;
  x = x > 710.0 ? V{} + 710.0 : x;
  const V k = (x * kInvLn2 + kRoundShift) - kRoundShift;
  const V hi = x - k * kLn2Hi;
  const V lo = k * kLn2Lo;
  const V r = hi - lo;
  const V t = r * r;
  const V c = r - t * (kP1 + t * (kP2 + t * (kP3 + t * (kP4 + t * kP5))));
  const V y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  // k = k1 + k2 with both halves in the normal exponent range.
  V scale1 = k * 0.5 + kRoundShift;
  V scale2 = (k - (scale1 - kRoundShift)) + kRoundShift;
  OraclePow2(scale1);
  OraclePow2(scale2);
  x = (y * scale1) * scale2;
}

template <typename V>
[[gnu::always_inline]] inline void OracleSigmoidLanes(V& x) {
  const auto nonnegative = x >= 0.0;
  V z = nonnegative ? -x : x;
  OracleExpLanes(z);
  x = (nonnegative ? V{} + 1.0 : z) / (1.0 + z);
}

template <typename V>
[[gnu::always_inline]] inline void OracleTanhLanes(V& x) {
  using Bits = OracleLaneBits<V>;
  constexpr double kR[] = {
      -0x1.5555555555555p-2,  0x1.1111111111032p-3, -0x1.ba1ba1b9fec84p-5,
      0x1.664f487713373p-6,  -0x1.226e32f00cf0cp-7, 0x1.d6d339333f329p-9,
      -0x1.7d97cfd138c28p-10, 0x1.34c5a8a996cd4p-11, -0x1.ec1091436eb2ap-13,
      0x1.64fd88e9900a5p-14, -0x1.59a834187ce22p-16};
  const Bits sign = reinterpret_cast<Bits>(x) & kOracleSignBit;
  const V a = reinterpret_cast<V>(reinterpret_cast<Bits>(x) ^ sign);
  const V z = a * a;
  V poly = V{} + kR[10];
  for (int i = 9; i >= 0; --i) poly = kR[i] + z * poly;
  const V small = a + (a * z) * poly;
  V e = -(a + a);
  OracleExpLanes(e);
  const V large = 1.0 - (e + e) / (1.0 + e);
  const V magnitude = a < 0.55 ? small : large;
  x = reinterpret_cast<V>(reinterpret_cast<Bits>(magnitude) | sign);
}

template <typename V>
constexpr int kOracleLanes = sizeof(V) / sizeof(double);

template <typename V>
[[gnu::always_inline]] inline void OracleLoadLanes(const double* p, int count,
                                                   V& v) {
  if (count == kOracleLanes<V>) {
    std::memcpy(&v, p, sizeof(V));
    return;
  }
  v = V{};
  for (int l = 0; l < count; ++l) v[l] = p[l];
}

template <typename V>
[[gnu::always_inline]] inline void OracleStoreLanes(const V& v, int count,
                                                    double* p) {
  if (count == kOracleLanes<V>) {
    std::memcpy(p, &v, sizeof(V));
    return;
  }
  for (int l = 0; l < count; ++l) p[l] = v[l];
}

template <typename V>
[[gnu::always_inline]] inline void OracleLstmGatesBody(const LstmGates& g,
                                                       int rows,
                                                       double* h_next,
                                                       double* keep) {
  const int d = g.d;
  const size_t nd = static_cast<size_t>(g.n) * d;
  for (int r = 0; r < rows; ++r) {
    const double* xr = g.xs + static_cast<size_t>(r) * 4 * d;
    const double* hr = g.hs + static_cast<size_t>(r) * 4 * d;
    for (int j = 0; j < d; j += kOracleLanes<V>) {
      const int count = std::min(kOracleLanes<V>, d - j);
      const size_t e = static_cast<size_t>(r) * d + j;
      V x_i, x_f, x_c, x_o, h_i, h_f, h_c, h_o, b_i, b_f, b_c, b_o, v_i,
          v_f, v_o, c_prev;
      OracleLoadLanes(xr + j, count, x_i);
      OracleLoadLanes(xr + d + j, count, x_f);
      OracleLoadLanes(xr + 2 * d + j, count, x_c);
      OracleLoadLanes(xr + 3 * d + j, count, x_o);
      OracleLoadLanes(hr + j, count, h_i);
      OracleLoadLanes(hr + d + j, count, h_f);
      OracleLoadLanes(hr + 2 * d + j, count, h_c);
      OracleLoadLanes(hr + 3 * d + j, count, h_o);
      OracleLoadLanes(g.b_i + j, count, b_i);
      OracleLoadLanes(g.b_f + j, count, b_f);
      OracleLoadLanes(g.b_c + j, count, b_c);
      OracleLoadLanes(g.b_o + j, count, b_o);
      OracleLoadLanes(g.v_i + e, count, v_i);
      OracleLoadLanes(g.v_f + e, count, v_f);
      OracleLoadLanes(g.v_o + e, count, v_o);
      OracleLoadLanes(g.c + e, count, c_prev);
      V i = ((x_i + h_i) + b_i) + v_i * c_prev;
      OracleSigmoidLanes(i);
      V f = ((x_f + h_f) + b_f) + v_f * c_prev;
      OracleSigmoidLanes(f);
      V cand = (x_c + h_c) + b_c;
      OracleTanhLanes(cand);
      const V c_next = f * c_prev + i * cand;
      V o = ((x_o + h_o) + b_o) + v_o * c_next;
      OracleSigmoidLanes(o);
      V tanh_c = c_next;
      OracleTanhLanes(tanh_c);
      OracleStoreLanes(c_next, count, g.c + e);
      OracleStoreLanes(o * tanh_c, count, h_next + e);
      if (keep != nullptr) {
        OracleStoreLanes(i, count, keep + LstmGates::kI * nd + e);
        OracleStoreLanes(f, count, keep + LstmGates::kF * nd + e);
        OracleStoreLanes(cand, count, keep + LstmGates::kG * nd + e);
        OracleStoreLanes(o, count, keep + LstmGates::kO * nd + e);
        OracleStoreLanes(tanh_c, count, keep + LstmGates::kTanhC * nd + e);
        OracleStoreLanes(x_o, count, keep + LstmGates::kXo * nd + e);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Drivers: each function over an array, one vector at a time, compiled for
// the baseline target (two lanes) and for AVX2 (four lanes).

enum class Fn { kExp, kSigmoid, kTanh };

template <typename V>
[[gnu::always_inline]] inline void LibraryLanes(Fn fn, V& v) {
  switch (fn) {
    case Fn::kExp:
      ExpLanes(v);
      return;
    case Fn::kSigmoid:
      SigmoidLanes(v);
      return;
    case Fn::kTanh:
      TanhLanes(v);
      return;
  }
}

template <typename V>
[[gnu::always_inline]] inline void OracleLanes(Fn fn, V& v) {
  switch (fn) {
    case Fn::kExp:
      OracleExpLanes(v);
      return;
    case Fn::kSigmoid:
      OracleSigmoidLanes(v);
      return;
    case Fn::kTanh:
      OracleTanhLanes(v);
      return;
  }
}

/// out = fn(in) with the library's lanes form (or the oracle's), whole
/// vectors only: in.size() is a multiple of four.
template <typename V>
[[gnu::always_inline]] inline void MapBody(Fn fn, bool oracle,
                                           const std::vector<double>& in,
                                           std::vector<double>& out) {
  out.resize(in.size());
  for (size_t i = 0; i < in.size(); i += sizeof(V) / sizeof(double)) {
    V v;
    std::memcpy(&v, in.data() + i, sizeof(V));
    if (oracle) {
      OracleLanes(fn, v);
    } else {
      LibraryLanes(fn, v);
    }
    std::memcpy(out.data() + i, &v, sizeof(V));
  }
}

void MapBaseline(Fn fn, bool oracle, const std::vector<double>& in,
                 std::vector<double>& out) {
  MapBody<Lanes2>(fn, oracle, in, out);
}

CASCN_TEST_TARGET_AVX2 void MapAvx2(Fn fn, bool oracle,
                                    const std::vector<double>& in,
                                    std::vector<double>& out) {
  MapBody<Lanes4>(fn, oracle, in, out);
}

void OracleGatesBaseline(const LstmGates& g, int rows, double* h_next,
                         double* keep) {
  OracleLstmGatesBody<Lanes2>(g, rows, h_next, keep);
}

CASCN_TEST_TARGET_AVX2 void OracleGatesAvx2(const LstmGates& g, int rows,
                                            double* h_next, double* keep) {
  OracleLstmGatesBody<Lanes4>(g, rows, h_next, keep);
}

// ---------------------------------------------------------------------------
// Comparison.

const double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Expects `got` to hold `want`'s bytes, naming the first element that
/// differs; a NaN matches any NaN. Which NaN an operation on a NaN returns
/// depends on which operand the compiler puts first, which IEEE leaves
/// open, so two builds of one formula may differ there and nowhere else.
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

/// Each function in each build the CPU can run against the oracle in the
/// same build, over `in` (a multiple of four long).
void ExpectOracleBits(const std::vector<double>& in, const std::string& what) {
  ASSERT_EQ(in.size() % 4, 0u);
  const struct {
    Fn fn;
    const char* name;
  } fns[] = {{Fn::kExp, "exp"}, {Fn::kSigmoid, "sigmoid"}, {Fn::kTanh, "tanh"}};
  for (const auto& [fn, name] : fns) {
    std::vector<double> want, got;
    MapBaseline(fn, /*oracle=*/true, in, want);
    MapBaseline(fn, /*oracle=*/false, in, got);
    ExpectBytes(want, got, what + " " + name + " baseline");
    if (!HostHasAvx2()) continue;
    MapAvx2(fn, /*oracle=*/true, in, want);
    MapAvx2(fn, /*oracle=*/false, in, got);
    ExpectBytes(want, got, what + " " + name + " avx2");
  }
}

// ---------------------------------------------------------------------------
// Inputs.

/// Every double within `steps` ulps of `at`, and `at` plus multiples of
/// `stride` out to `steps` strides either way.
void Sweep(double at, int steps, double stride, std::vector<double>& out) {
  double below = at, above = at;
  out.push_back(at);
  for (int s = 0; s < steps; ++s) {
    below = std::nextafter(below, -kInf);
    above = std::nextafter(above, kInf);
    out.push_back(below);
    out.push_back(above);
  }
  for (int s = 1; s <= steps; ++s) {
    out.push_back(at - s * stride);
    out.push_back(at + s * stride);
  }
}

/// Pads `v` with copies of its first element to a multiple of four.
void PadToVectors(std::vector<double>& v) {
  while (v.size() % 4 != 0) v.push_back(v.front());
}

/// A value of one of the classes a lane can fall in: one of the tanh
/// polynomial's arguments (|x| < 0.55), a moderate argument beyond it, one
/// past exp's fast range (|x| beyond 708), or a special value.
double ClassValue(Rng& rng, int cls) {
  const double sign = rng.UniformInt(2) == 0 ? -1.0 : 1.0;
  switch (cls) {
    case 0:
      return sign * rng.Uniform(0.0, 0.55);
    case 1:
      return sign * rng.Uniform(0.55, 40.0);
    case 2:
      return sign * rng.Uniform(700.0, 800.0);
    default: {
      const double specials[] = {0.0,    -0.0,    kInf,
                                 -kInf,  kNaN,    DBL_TRUE_MIN,
                                 -DBL_MIN / 3, 0.55, -0.55};
      return specials[rng.UniformInt(9)];
    }
  }
}

TEST(GateOracleTest, SweepsAcrossEveryBoundary) {
  std::vector<double> in;
  // exp's clamps and the edges of its fast range; tanh's switch of form, and
  // where e^{-2|x|} leaves that range; the sigmoid's sign switch.
  for (double at : {-746.0, -745.1332191019412, -708.0, -708.3964185322641,
                    709.0, 709.782712893384, 710.0, -0.55, 0.55, -354.0,
                    354.0, -354.5, 354.5, 0.0, -0.0})
    Sweep(at, 64, 1e-3, in);
  // Arguments whose exp or sigmoid is subnormal.
  for (double x = -745.2; x < -708.0; x += 0.37) in.push_back(x);
  for (double x : {0.0, -0.0, kInf, -kInf, kNaN, -kNaN, DBL_TRUE_MIN,
                   -DBL_TRUE_MIN, DBL_MIN, -DBL_MIN, DBL_MIN / 3,
                   -DBL_MIN / 3, DBL_MAX, -DBL_MAX, 1e-300, -1e-300})
    in.push_back(x);
  PadToVectors(in);
  ExpectOracleBits(in, "sweep");
  // The same inputs sorted, so that the vectors straddle each boundary at
  // every lane offset.
  std::vector<double> sorted = in;
  std::sort(sorted.begin(), sorted.end(), [](double a, double b) {
    return a < b || (!std::isnan(a) && std::isnan(b));
  });
  for (int offset = 1; offset < 4; ++offset) {
    std::vector<double> shifted(sorted.begin() + offset, sorted.end());
    shifted.insert(shifted.end(), sorted.begin(), sorted.begin() + offset);
    ExpectOracleBits(shifted, "sorted sweep, offset " +
                                  std::to_string(offset));
  }
}

TEST(GateOracleTest, UniformAndMixedVectors) {
  Rng rng(35);
  // Each group of four lanes takes one class per lane from the pattern:
  // all sixteen two-class patterns for every pair of classes (uniform
  // vectors among them), in both two-lane halves too.
  std::vector<double> in;
  for (int round = 0; round < 64; ++round)
    for (int a = 0; a < 4; ++a)
      for (int b = a; b < 4; ++b)
        for (int pattern = 0; pattern < 16; ++pattern)
          for (int l = 0; l < 4; ++l)
            in.push_back(ClassValue(rng, (pattern >> l) & 1 ? b : a));
  ExpectOracleBits(in, "class patterns");
  // And every lane drawn at random over a wide range.
  std::vector<double> wide(4096);
  for (double& x : wide)
    x = rng.UniformInt(4) == 0 ? rng.Uniform(-800.0, 800.0)
                               : rng.Uniform(-3.0, 3.0);
  ExpectOracleBits(wide, "wide");
}

TEST(GateOracleTest, ScalarFormsAreLaneZero) {
  Rng rng(36);
  for (int i = 0; i < 20000; ++i) {
    const double x = ClassValue(rng, rng.UniformInt(4));
    Lanes2 v = {x};
    OracleExpLanes(v);
    const double exp_want = v[0];
    v = Lanes2{x};
    OracleSigmoidLanes(v);
    const double sigmoid_want = v[0];
    v = Lanes2{x};
    OracleTanhLanes(v);
    const double tanh_want = v[0];
    ExpectBytes({exp_want, sigmoid_want, tanh_want},
                {Exp(x), Sigmoid(x), Tanh(x)}, "x=" + std::to_string(x));
  }
}

// ---- The gate pass ---------------------------------------------------------

/// A pre-activation term at `scale`: uniform in [-scale, scale], with, when
/// `specials`, a few far beyond any gate's range or +-0.0, inf or NaN.
double GateTerm(Rng& rng, double scale, bool specials) {
  if (specials) {
    switch (rng.UniformInt(64)) {
      case 0:
        return 0.0;
      case 1:
        return -0.0;
      case 2:
        return kInf;
      case 3:
        return kNaN;
      case 4:
        return rng.Uniform(-800.0, 800.0);
      default:
        break;
    }
  }
  return rng.Uniform(-scale, scale);
}

/// The gate pass, rows 1-33 and d = 1-13, with and without keep blocks,
/// against the oracle's pass in the same build. The terms are small enough
/// that every tanh takes its polynomial, wide enough to mix both forms, or
/// large with special values among them. Rows from `rows` on are not the
/// pass's: their h_t, c and keep entries keep the 7.0 they start with in
/// the oracle's output, so they must in the library's.
TEST(GateOracleTest, LstmGatePassKeepsTheOraclesBits) {
  Rng rng(37);
  struct Regime {
    double scale;
    bool specials;
  };
  const Regime regimes[] = {{0.05, false}, {3.0, false}, {40.0, true}};
  for (const Regime& regime : regimes)
    for (int rows = 1; rows <= 33; ++rows)
      for (int d = 1; d <= 13; ++d) {
        const int n = rows + 1;
        const size_t nd = static_cast<size_t>(n) * d;
        auto terms = [&](size_t count) {
          std::vector<double> v(count);
          for (double& x : v) x = GateTerm(rng, regime.scale, regime.specials);
          return v;
        };
        const std::vector<double> xs = terms(4 * nd), hs = terms(4 * nd),
                                  v = terms(3 * nd), b = terms(4 * d),
                                  c0 = terms(nd);
        const size_t kept = LstmGates::kNumKept * nd;
        // h_t, then c_t, then the keep blocks.
        auto run = [&](void (*gates_fn)(const LstmGates&, int, double*,
                                        double*),
                       bool with_keep) {
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
          gates_fn(gates, rows, out.data(),
                   with_keep ? out.data() + 2 * nd : nullptr);
          return out;
        };
        const std::string what = "scale=" + std::to_string(regime.scale) +
                                 " rows=" + std::to_string(rows) +
                                 " d=" + std::to_string(d);
        for (bool with_keep : {true, false}) {
          const std::string keep_name = with_keep ? "" : " without keep";
          ExpectBytes(run(OracleGatesBaseline, with_keep),
                      run(kBaselineFilterKernels.lstm_gates, with_keep),
                      what + " baseline" + keep_name);
          if (!HostHasAvx2()) continue;
          ExpectBytes(run(OracleGatesAvx2, with_keep),
                      run(kAvx2FilterKernels.lstm_gates, with_keep),
                      what + " avx2" + keep_name);
        }
      }
}

}  // namespace
}  // namespace cascn::nn::internal

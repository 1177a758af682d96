// Math helpers: the label transforms, the model's exp, tanh, sigmoid, log1p
// and integer power with the same bits on every host, and the descriptive
// statistics used by the feature extractors and evaluation code.

#ifndef CASCN_COMMON_MATH_UTIL_H_
#define CASCN_COMMON_MATH_UTIL_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace cascn {

/// log2(1 + x); the label transform used throughout the paper's evaluation
/// (sizes are compared in log scale, base 2 as in DeepCas/DeepHawkes).
inline double Log2p1(double x) { return std::log2(1.0 + x); }

/// Inverse of Log2p1.
inline double Exp2m1(double y) { return std::exp2(y) - 1.0; }

// ---- exp, tanh and the sigmoid, a vector of lanes at a time ----------------
//
// The one definition of each, built from IEEE +, -, *, /, comparisons and
// bit operations only: no libm call, and no product that fuses into a sum
// (no build enables FMA, and CI rejects any FMA instruction in a library).
// So every host gives the same bits, whichever libm it has. Each function
// works on a GCC vector of doubles, lane by lane, and every lane gets the
// same bits whatever the vector's width and whatever the other lanes hold:
// a function skips only work whose result no lane of the vector reads, or
// work that leaves every lane's value unchanged. The scalar forms are lane
// 0 of the two-lane forms. So a kernel that runs the lanes forms over a
// row gives every element exactly the scalar function's bits.
//
// Two lanes (16 bytes) are one SSE2 register and the baseline x86-64
// target's width. Four lanes (32 bytes) are one AVX2 register: use them
// only inside a target("avx2") function (the attribute enables no FMA).
// Outside one, GCC has to realign the stack for them, and GCC 12 then
// defers popping the stack arguments of calls in a loop until the function
// returns, so a loop that calls, say, expl(long double) runs off the stack.

/// Two doubles operated on lane by lane: the baseline target's width.
using Lanes2 = double __attribute__((vector_size(16)));
/// Four doubles: the width inside a target("avx2") function.
using Lanes4 = double __attribute__((vector_size(32)));

namespace math_internal {

/// The lanes of a vector of `kBytes` bytes as 64-bit patterns.
template <int kBytes>
struct LaneBitsOf;
template <>
struct LaneBitsOf<16> {
  using type = uint64_t __attribute__((vector_size(16)));
};
template <>
struct LaneBitsOf<32> {
  using type = uint64_t __attribute__((vector_size(32)));
};
template <typename V>
using LaneBits = typename LaneBitsOf<sizeof(V)>::type;

/// 1.5 * 2^52: adding it rounds a double of magnitude below 2^51 to an
/// integer held in the low bits of the sum.
inline constexpr double kRoundShift = 0x1.8p52;
inline constexpr uint64_t kSignBit = uint64_t{1} << 63;

/// 2^k for each lane of `shifted` = k + kRoundShift, k in [-1022, 1023],
/// written over `shifted`. Its low bits hold k; shifting them into the
/// exponent field drops kRoundShift's own bits.
template <typename V>
[[gnu::always_inline]] inline void Pow2(V& shifted) {
  shifted = reinterpret_cast<V>(
      (reinterpret_cast<LaneBits<V>>(shifted) + 1023) << 52);
}

/// Whether lo <= x <= hi in every lane of x; false where a lane is NaN. It
/// picks which operations a function runs, never what one lane gets.
[[gnu::always_inline]] inline bool AllWithin(const Lanes2& x, double lo,
                                             double hi) {
#if defined(__SSE2__)
  // GCC 12 moves a two-lane comparison mask through general registers
  // lane by lane; the builtins keep it in one register.
  const Lanes2 in = __builtin_ia32_andpd(
      __builtin_ia32_cmplepd(Lanes2{} + lo, x),
      __builtin_ia32_cmplepd(x, Lanes2{} + hi));
  return __builtin_ia32_movmskpd(in) == 3;
#else
  return x[0] >= lo && x[0] <= hi && x[1] >= lo && x[1] <= hi;
#endif
}

/// AllWithin of four lanes, as the two halves' lanes ANDed together.
[[gnu::always_inline]] inline bool AllWithin(const Lanes4& x, double lo,
                                             double hi) {
  const auto in = (x >= lo) & (x <= hi);
  const auto both = __builtin_shufflevector(in, in, 0, 1) &
                    __builtin_shufflevector(in, in, 2, 3);
#if defined(__SSE2__)
  return __builtin_ia32_movmskpd(reinterpret_cast<Lanes2>(both)) == 3;
#else
  return both[0] != 0 && both[1] != 0;
#endif
}

}  // namespace math_internal

/// Each lane of x replaced by e^x, within 1 ulp. The reduction and the
/// rational form are fdlibm's e_exp.c: x = k ln2 + r with |r| <= ln2 / 2,
/// k ln2 taken in two parts so that r carries 2^-53 of it, and
/// e^r = 1 + r + r c / (2 - c) with c = r - r^2 P(r^2), P of degree 4.
/// Arguments are clamped to [-746, 710], beyond which the result is 0 or
/// inf anyway. 2^k is applied as two factors, so results in the subnormal
/// range round once and do not flush to zero, and results past DBL_MAX
/// overflow to inf. NaN gives NaN.
///
/// When every lane lies in [-708, 709] (the gates' usual case), neither
/// clamp can change a lane, and 2^k is applied as one factor: k is then in
/// [-1021, 1023], e^r in [0.70, 1.42], and e^r 2^k a normal double, so the
/// one product and the two-factor product are both exact and the same.
template <typename V>
[[gnu::always_inline]] inline void ExpLanes(V& x) {
  using math_internal::kRoundShift;
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
  const bool normal = math_internal::AllWithin(x, -708.0, 709.0);
  if (!normal) {
    // Comparisons are false for NaN, which therefore passes through.
    x = x < -746.0 ? V{} - 746.0 : x;
    x = x > 710.0 ? V{} + 710.0 : x;
  }
  const V k = (x * kInvLn2 + kRoundShift) - kRoundShift;
  const V hi = x - k * kLn2Hi;
  const V lo = k * kLn2Lo;
  const V r = hi - lo;
  const V t = r * r;
  const V c = r - t * (kP1 + t * (kP2 + t * (kP3 + t * (kP4 + t * kP5))));
  const V y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  if (normal) {
    V scale = k + kRoundShift;
    math_internal::Pow2(scale);
    x = y * scale;
    return;
  }
  // k = k1 + k2 with both halves in the normal exponent range.
  V scale1 = k * 0.5 + kRoundShift;
  V scale2 = (k - (scale1 - kRoundShift)) + kRoundShift;
  math_internal::Pow2(scale1);
  math_internal::Pow2(scale2);
  x = (y * scale1) * scale2;
}

/// Each lane of x replaced by 1 / (1 + e^-x), with one exp: x >= 0 takes
/// 1 / (1 + e^-x), and x < 0 (or NaN) e^x / (1 + e^x), so the exp never
/// overflows and tiny results (subnormal ones too) are not rounded to zero.
template <typename V>
[[gnu::always_inline]] inline void SigmoidLanes(V& x) {
  const auto nonnegative = x >= 0.0;
  V z = nonnegative ? -x : x;
  ExpLanes(z);
  x = (nonnegative ? V{} + 1.0 : z) / (1.0 + z);
}

/// Each lane of x replaced by tanh(x), within 2 ulp; odd, so tanh(-0) is
/// -0. For |x| < 0.55 a minimax polynomial: tanh(a) = a + a^3 R(a^2), R of
/// degree 10, fitted to 8e-18. From there 1 - 2e / (1 + e) with
/// e = e^{-2|x|}: the result is at least 1/2 and the term subtracted at most
/// 1/2, so the subtraction adds no more than its own rounding. The sign is
/// copied back from x. A form is computed only when some lane takes it (a
/// NaN lane takes the second), and each lane gets the same form either way.
template <typename V>
[[gnu::always_inline]] inline void TanhLanes(V& x) {
  using Bits = math_internal::LaneBits<V>;
  constexpr double kR[] = {
      -0x1.5555555555555p-2,  0x1.1111111111032p-3, -0x1.ba1ba1b9fec84p-5,
      0x1.664f487713373p-6,  -0x1.226e32f00cf0cp-7, 0x1.d6d339333f329p-9,
      -0x1.7d97cfd138c28p-10, 0x1.34c5a8a996cd4p-11, -0x1.ec1091436eb2ap-13,
      0x1.64fd88e9900a5p-14, -0x1.59a834187ce22p-16};
  // The largest double below 0.55: a lane takes the polynomial iff
  // a <= kPolyEnd, that is iff a < 0.55.
  constexpr double kPolyEnd = 0x1.1999999999999p-1;
  const Bits sign = reinterpret_cast<Bits>(x) & math_internal::kSignBit;
  const V a = reinterpret_cast<V>(reinterpret_cast<Bits>(x) ^ sign);
  V magnitude = a;  // every lane is overwritten below
  if (!math_internal::AllWithin(a, 0.55,
                                 std::numeric_limits<double>::infinity())) {
    const V z = a * a;
    V poly = V{} + kR[10];
    for (int i = 9; i >= 0; --i) poly = kR[i] + z * poly;
    magnitude = a + (a * z) * poly;
  }
  if (!math_internal::AllWithin(a, 0.0, kPolyEnd)) {
    V e = -(a + a);
    ExpLanes(e);
    const V large = 1.0 - (e + e) / (1.0 + e);
    magnitude = a < 0.55 ? magnitude : large;
  }
  x = reinterpret_cast<V>(reinterpret_cast<Bits>(magnitude) | sign);
}

/// e^x: lane 0 of ExpLanes.
inline double Exp(double x) {
  Lanes2 v = {x};
  ExpLanes(v);
  return v[0];
}

/// The logistic sigmoid: lane 0 of SigmoidLanes. The single definition
/// behind ag::Sigmoid, Softplus's gradient and the fused graph-RNN kernels.
inline double Sigmoid(double x) {
  Lanes2 v = {x};
  SigmoidLanes(v);
  return v[0];
}

/// tanh(x): lane 0 of TanhLanes.
inline double Tanh(double x) {
  Lanes2 v = {x};
  TanhLanes(v);
  return v[0];
}

/// log(1 + x), within 1 ulp, from IEEE arithmetic and bit operations only
/// (fdlibm's s_log1p.c): 1 + x = 2^k (1 + f) with sqrt(2)/2 <= 1 + f <
/// sqrt(2), the rounding error of 1 + x carried as a correction c / (1 + x),
/// and log(1 + f) = f - (f^2/2 - s (f^2/2 + R(s^2))) with s = f / (2 + f),
/// R of degree 7. log1p(-1) is -inf, below -1 NaN.
inline double Log1p(double x) {
  constexpr double kLn2Hi = 0x1.62e42feep-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  constexpr double kLp[] = {0x1.5555555555593p-1, 0x1.999999997fa04p-2,
                            0x1.2492494229359p-2, 0x1.c71c51d8e78afp-3,
                            0x1.7466496cb03dep-3, 0x1.39a09d078c69fp-3,
                            0x1.2f112df3e5244p-3};
  constexpr uint64_t kMantissa = (uint64_t{1} << 52) - 1;
  constexpr uint64_t kSqrt2Mantissa = 0x6a09e667f3bcdULL;
  if (x != x || x == std::numeric_limits<double>::infinity()) return x;
  if (x <= -1.0)
    return x == -1.0 ? -std::numeric_limits<double>::infinity()
                     : std::numeric_limits<double>::quiet_NaN();
  int k = 0;
  double f = x, c = 0.0;
  if (!(x > -0x1.2bec333018866p-2 && x < 0x1.a827999fcef34p-2)) {
    // 1 + x outside [sqrt(2)/2, sqrt(2)): scale it into that range.
    double u = x;
    if (x < 0x1p53) {
      u = 1.0 + x;
      k = static_cast<int>(std::bit_cast<uint64_t>(u) >> 52) - 1023;
      c = (k > 0 ? 1.0 - (u - x) : x - (u - 1.0)) / u;
    } else {
      k = static_cast<int>(std::bit_cast<uint64_t>(u) >> 52) - 1023;
    }
    const uint64_t mantissa = std::bit_cast<uint64_t>(u) & kMantissa;
    if (mantissa < kSqrt2Mantissa) {
      u = std::bit_cast<double>(mantissa | (uint64_t{1023} << 52));
    } else {
      u = std::bit_cast<double>(mantissa | (uint64_t{1022} << 52));
      ++k;
    }
    f = u - 1.0;
  }
  const double half_f2 = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  double r = kLp[6];
  for (int i = 5; i >= 0; --i) r = kLp[i] + z * r;
  r *= z;
  if (k == 0) return f - (half_f2 - s * (half_f2 + r));
  return k * kLn2Hi - ((half_f2 - (s * (half_f2 + r) + (k * kLn2Lo + c))) - f);
}

/// log(1 + e^x), taken as x itself for x > 20 (within 2.1e-9 of it there),
/// so e^x never overflows. The single definition behind ag::Softplus and
/// the values-only forward's decay factors.
inline double Softplus(double x) { return x > 20 ? x : Log1p(Exp(x)); }

/// base^n for n >= 0 by binary powering: multiplications only, so every
/// host gives the same bits (libm's pow does not). Each squaring doubles
/// the relative error it is handed, so the result is within about n ulp:
/// plenty for Adam's bias correction, the one caller.
inline double IntegerPower(double base, int64_t n) {
  double result = 1.0;
  for (; n > 0; n >>= 1) {
    if (n & 1) result *= base;
    base *= base;
  }
  return result;
}

/// Arithmetic mean; 0 for an empty vector.
double Mean(const std::vector<double>& v);

/// Population standard deviation; 0 for fewer than two elements.
double StdDev(const std::vector<double>& v);

/// Largest element; 0 for an empty vector.
double MaxValue(const std::vector<double>& v);

/// Linear-interpolation percentile, p in [0, 100]; 0 for an empty vector.
double Percentile(std::vector<double> v, double p);

/// Mean squared error between log-transformed sizes: the paper's MSLE
/// (Eq. 20) computed over matched prediction/truth pairs already in log
/// space. Pre: equal non-zero lengths.
double MeanSquaredError(const std::vector<double>& pred,
                        const std::vector<double>& truth);

}  // namespace cascn

#endif  // CASCN_COMMON_MATH_UTIL_H_

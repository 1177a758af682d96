#include "common/math_util.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace cascn {
namespace {

TEST(Log2p1Test, KnownValues) {
  EXPECT_DOUBLE_EQ(Log2p1(0), 0.0);
  EXPECT_DOUBLE_EQ(Log2p1(1), 1.0);
  EXPECT_DOUBLE_EQ(Log2p1(3), 2.0);
  EXPECT_DOUBLE_EQ(Log2p1(7), 3.0);
}

TEST(Log2p1Test, InverseRoundTrips) {
  for (double x : {0.0, 1.0, 5.0, 100.0, 12345.0}) {
    EXPECT_NEAR(Exp2m1(Log2p1(x)), x, 1e-9 * (1 + x));
  }
}

// ---- Exp, Tanh and Sigmoid against long double --------------------------

const double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::numeric_limits<double>::quiet_NaN();

/// |got - want| in units of the spacing of doubles at want's magnitude
/// (2^-1074 in the subnormal range).
double UlpError(double got, long double want) {
  int exponent = 0;
  std::frexp(static_cast<double>(want), &exponent);
  const long double ulp =
      std::ldexp(1.0L, std::max(exponent - 53, DBL_MIN_EXP - DBL_MANT_DIG));
  return static_cast<double>(std::fabs(static_cast<long double>(got) - want) /
                             ulp);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// SameBits, except that a NaN matches any NaN: which NaN an operation on a
/// NaN returns depends on which operand the compiler puts first.
bool SameValue(double a, double b) {
  return SameBits(a, b) || (std::isnan(a) && std::isnan(b));
}

/// The largest UlpError of f against reference over `count` arguments drawn
/// by draw(i); `worst` receives its argument.
template <typename F, typename Reference, typename Draw>
double MaxUlpError(int count, F f, Reference reference, Draw draw,
                   double& worst) {
  double max_error = 0;
  for (int i = 0; i < count; ++i) {
    const double x = draw(i);
    const double error = UlpError(f(x), reference(static_cast<long double>(x)));
    if (error > max_error) {
      max_error = error;
      worst = x;
    }
  }
  return max_error;
}

// The bounds the sweeps below assert. The maxima they measured: Exp 0.90
// ulp, Tanh 1.50 ulp, Log1p 0.78 ulp.
constexpr double kExpMaxUlp = 1.0;
constexpr double kTanhMaxUlp = 2.0;

TEST(ExpTest, WithinOneUlpOfExplOverTheWholeNormalRange) {
  Rng rng(1);
  double worst = 0;
  const double error = MaxUlpError(
      1 << 20, Exp, [](long double x) { return expl(x); },
      [&](int i) {
        // Half over every argument with a normal result, half near 0.
        return i % 2 == 0 ? rng.Uniform(-708.39, 709.78)
                          : rng.Uniform(-2.0, 2.0);
      },
      worst);
  EXPECT_LE(error, kExpMaxUlp) << "worst at x=" << std::hexfloat << worst;
}

TEST(TanhTest, WithinTwoUlpOfTanhl) {
  Rng rng(2);
  double worst = 0;
  const double error = MaxUlpError(
      1 << 20, Tanh, [](long double x) { return tanhl(x); },
      [&](int i) {
        // The polynomial's range, the exp form's, and the switch between
        // them at |x| = 0.55.
        switch (i % 3) {
          case 0:
            return rng.Uniform(-0.55, 0.55);
          case 1:
            return rng.Uniform(-20.0, 20.0);
          default:
            return rng.Uniform(0.5, 0.7) * (i % 2 == 0 ? 1 : -1);
        }
      },
      worst);
  EXPECT_LE(error, kTanhMaxUlp) << "worst at x=" << std::hexfloat << worst;
}

TEST(ExpTest, SpecialValues) {
  EXPECT_TRUE(SameBits(Exp(0.0), 1.0));
  EXPECT_TRUE(SameBits(Exp(-0.0), 1.0));
  EXPECT_TRUE(SameBits(Exp(kInf), kInf));
  EXPECT_TRUE(SameBits(Exp(-kInf), 0.0));
  EXPECT_TRUE(std::isnan(Exp(kNaN)));
  EXPECT_TRUE(SameBits(Exp(-1e300), 0.0));
  EXPECT_TRUE(SameBits(Exp(1e300), kInf));
  // The overflow edge: ln(DBL_MAX) lies between these two doubles.
  const double last_finite = 0x1.62e42fefa39efp+9;  // 709.782712893384
  EXPECT_TRUE(std::isfinite(Exp(last_finite)));
  EXPECT_LE(UlpError(Exp(last_finite), expl(last_finite)), kExpMaxUlp);
  EXPECT_TRUE(SameBits(Exp(std::nextafter(last_finite, kInf)), kInf));
  EXPECT_TRUE(SameBits(Exp(709.8), kInf));
}

TEST(ExpTest, SubnormalResultsRoundOnceAndDoNotFlushToZero) {
  for (double x = -708.5; x > -745.0; x -= 0.37) {
    const double got = Exp(x);
    EXPECT_LT(got, DBL_MIN) << x;
    EXPECT_GT(got, 0.0) << x;
    EXPECT_LE(UlpError(got, expl(x)), kExpMaxUlp) << x;
  }
  // e^-745.13 is within half the smallest subnormal of it; e^-746 is not.
  EXPECT_TRUE(
      SameBits(Exp(-745.13), std::numeric_limits<double>::denorm_min()));
  EXPECT_TRUE(SameBits(Exp(-746.0), 0.0));
}

TEST(TanhTest, SpecialValues) {
  EXPECT_TRUE(SameBits(Tanh(0.0), 0.0));
  EXPECT_TRUE(SameBits(Tanh(-0.0), -0.0));
  EXPECT_TRUE(SameBits(Tanh(kInf), 1.0));
  EXPECT_TRUE(SameBits(Tanh(-kInf), -1.0));
  EXPECT_TRUE(std::isnan(Tanh(kNaN)));
  EXPECT_TRUE(SameBits(Tanh(1e-300), 1e-300));
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_TRUE(SameBits(Tanh(-tiny), -tiny));
  EXPECT_TRUE(SameBits(Tanh(40.0), 1.0));
  EXPECT_TRUE(SameBits(Tanh(-1e300), -1.0));
}

TEST(TanhTest, Odd) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.Uniform(-25.0, 25.0);
    EXPECT_TRUE(SameBits(Tanh(-x), -Tanh(x))) << x;
  }
}

TEST(SigmoidTest, SpecialValuesAndTinyResults) {
  EXPECT_TRUE(SameBits(Sigmoid(0.0), 0.5));
  EXPECT_TRUE(SameBits(Sigmoid(-0.0), 0.5));
  EXPECT_TRUE(SameBits(Sigmoid(kInf), 1.0));
  EXPECT_TRUE(SameBits(Sigmoid(-kInf), 0.0));
  EXPECT_TRUE(std::isnan(Sigmoid(kNaN)));
  // Below -708 the result is subnormal: e^x / (1 + e^x) = e^x, not 0.
  for (const double x : {-709.0, -720.0, -740.0}) {
    EXPECT_GT(Sigmoid(x), 0.0) << x;
    EXPECT_TRUE(SameBits(Sigmoid(x), Exp(x))) << x;
  }
}

// Each lane is computed on its own: the lanes forms give, lane by lane, the
// scalar forms' bits whatever the other lanes hold (NaN payloads aside).
TEST(LanesTest, EveryLaneIsTheScalarForm) {
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    Lanes2 x;
    for (int l = 0; l < 2; ++l)
      x[l] = rng.UniformInt(16) == 0 ? kNaN : rng.Uniform(-30.0, 30.0);
    Lanes2 e = x, t = x, s = x;
    ExpLanes(e);
    TanhLanes(t);
    SigmoidLanes(s);
    for (int l = 0; l < 2; ++l) {
      EXPECT_TRUE(SameValue(e[l], Exp(x[l]))) << x[l];
      EXPECT_TRUE(SameValue(t[l], Tanh(x[l]))) << x[l];
      EXPECT_TRUE(SameValue(s[l], Sigmoid(x[l]))) << x[l];
    }
  }
}

TEST(Log1pTest, WithinOneUlpOfLog1pl) {
  Rng rng(6);
  double worst = 0;
  const double error = MaxUlpError(
      1 << 20, Log1p, [](long double x) { return log1pl(x); },
      [&](int i) {
        // Softplus's range, e^x for x <= 20, and the rest above -1.
        switch (i % 3) {
          case 0:
            return Exp(rng.Uniform(-40.0, 20.0));
          case 1:
            return rng.Uniform(-1.0, 1.0);
          default:
            return std::exp2(rng.Uniform(-60.0, 1000.0));
        }
      },
      worst);
  EXPECT_LE(error, 1.0) << "worst at x=" << std::hexfloat << worst;
}

TEST(Log1pTest, SpecialValues) {
  EXPECT_TRUE(SameBits(Log1p(0.0), 0.0));
  EXPECT_TRUE(SameBits(Log1p(-0.0), -0.0));
  EXPECT_TRUE(SameBits(Log1p(1e-300), 1e-300));
  EXPECT_TRUE(SameBits(Log1p(-1.0), -kInf));
  EXPECT_TRUE(std::isnan(Log1p(-2.0)));
  EXPECT_TRUE(std::isnan(Log1p(kNaN)));
  EXPECT_TRUE(SameBits(Log1p(kInf), kInf));
  EXPECT_LE(UlpError(Log1p(DBL_MAX), log1pl(DBL_MAX)), 1.0);
}

TEST(IntegerPowerTest, MultipliesOnly) {
  EXPECT_EQ(IntegerPower(0.9, 0), 1.0);
  EXPECT_EQ(IntegerPower(0.9, 1), 0.9);
  EXPECT_EQ(IntegerPower(0.9, 2), 0.9 * 0.9);
  EXPECT_EQ(IntegerPower(2.0, 10), 1024.0);
  const double b = 0.999;
  EXPECT_EQ(IntegerPower(b, 5), ((b * b) * (b * b)) * b);
  // Each squaring doubles the relative error it is handed, so the error
  // grows with n: within n ulp.
  const long double base = 0.999;
  for (int n = 1; n <= 5000; n += 7)
    EXPECT_LE(UlpError(IntegerPower(0.999, n), powl(base, n)), n) << n;
}

TEST(SigmoidTest, SymmetryAndLimits) {
  EXPECT_DOUBLE_EQ(Sigmoid(0), 0.5);
  EXPECT_NEAR(Sigmoid(10) + Sigmoid(-10), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(100), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-100), 0.0, 1e-12);
  // No overflow for extreme inputs.
  EXPECT_TRUE(std::isfinite(Sigmoid(1e6)));
  EXPECT_TRUE(std::isfinite(Sigmoid(-1e6)));
}

TEST(MeanTest, BasicAndEmpty) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({5}), 5.0);
}

TEST(StdDevTest, PopulationFormula) {
  EXPECT_DOUBLE_EQ(StdDev({2, 2, 2}), 0.0);
  EXPECT_NEAR(StdDev({1, 3}), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(StdDev({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({7}), 0.0);
}

TEST(MaxValueTest, Basic) {
  EXPECT_DOUBLE_EQ(MaxValue({1, 9, 3}), 9.0);
  EXPECT_DOUBLE_EQ(MaxValue({}), 0.0);
}

TEST(PercentileTest, InterpolatesLinearly) {
  std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 25.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(PercentileTest, UnsortedInputIsHandled) {
  EXPECT_DOUBLE_EQ(Percentile({40, 10, 30, 20}, 100), 40.0);
}

TEST(MeanSquaredErrorTest, MatchesManualComputation) {
  const double mse = MeanSquaredError({1.0, 2.0}, {2.0, 0.0});
  EXPECT_DOUBLE_EQ(mse, (1.0 + 4.0) / 2.0);
}

TEST(MeanSquaredErrorTest, ZeroForExactPredictions) {
  EXPECT_DOUBLE_EQ(MeanSquaredError({1.5, -2.0}, {1.5, -2.0}), 0.0);
}

}  // namespace
}  // namespace cascn

#include "common/math_util.h"

#include <cmath>

#include <gtest/gtest.h>

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

TEST(SigmoidTest, SymmetryAndLimits) {
  EXPECT_DOUBLE_EQ(StableSigmoid(0), 0.5);
  EXPECT_NEAR(StableSigmoid(10) + StableSigmoid(-10), 1.0, 1e-12);
  EXPECT_NEAR(StableSigmoid(100), 1.0, 1e-12);
  EXPECT_NEAR(StableSigmoid(-100), 0.0, 1e-12);
  // No overflow for extreme inputs.
  EXPECT_TRUE(std::isfinite(StableSigmoid(1e6)));
  EXPECT_TRUE(std::isfinite(StableSigmoid(-1e6)));
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

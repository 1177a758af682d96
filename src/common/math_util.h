// Scalar math helpers: stable log transforms and basic descriptive
// statistics used by the feature extractors and evaluation code.

#ifndef CASCN_COMMON_MATH_UTIL_H_
#define CASCN_COMMON_MATH_UTIL_H_

#include <cmath>
#include <vector>

namespace cascn {

/// log2(1 + x); the label transform used throughout the paper's evaluation
/// (sizes are compared in log scale, base 2 as in DeepCas/DeepHawkes).
inline double Log2p1(double x) { return std::log2(1.0 + x); }

/// Inverse of Log2p1.
inline double Exp2m1(double y) { return std::exp2(y) - 1.0; }

/// Numerically-stable sigmoid: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x)
/// otherwise, with one exp call on either branch. The single definition
/// behind ag::Sigmoid, Softplus's gradient and the fused graph-RNN kernels.
inline double StableSigmoid(double x) {
  if (x >= 0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
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

// ChebConv: K-order Chebyshev spectral graph convolution (Defferrard et al.
// 2016, Eq. 3 of the CasCN paper):
//
//   y = sum_{k=0}^{K-1} T_k(L~) X W_k
//
// where T_k is the k-th Chebyshev polynomial of the scaled Laplacian L~ and
// W_k are trainable filters. The Chebyshev basis {T_k(L~)} depends only on
// the graph, so callers precompute it once per cascade (see
// graph/chebyshev.h) and pass it to Forward. Forward splits into
// Propagate (T_k(L~) X, no weights) and Apply (the filters), so recurrent
// cells can propagate one signal once and share it across their gates.

#ifndef CASCN_NN_CHEB_CONV_H_
#define CASCN_NN_CHEB_CONV_H_

#include <vector>

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/csr_matrix.h"

namespace cascn::nn {

/// K-order Chebyshev filter bank mapping (n x in) signals to (n x out).
class ChebConv : public Module {
 public:
  /// `k` filters of shape in x out, plus a shared bias when with_bias.
  ChebConv(int in_features, int out_features, int k, Rng& rng,
           bool with_bias = true);

  /// Applies the filter bank: Apply(Propagate(cheb_basis, x)).
  /// `cheb_basis` holds T_0..T_{K-1} of the scaled Laplacian (each n x n);
  /// `x` is the (n x in) signal. Pre: cheb_basis.size() == order().
  ag::Variable Forward(const std::vector<CsrMatrix>& cheb_basis,
                       const ag::Variable& x) const;

  /// The graph half of the convolution, {T_k(L~) x} for k < K. It holds no
  /// weights, so filter banks of equal order over the same signal can share
  /// one result.
  static std::vector<ag::Variable> Propagate(
      const std::vector<CsrMatrix>& cheb_basis, const ag::Variable& x);

  /// The filter half: sum_k propagated[k] W_k (+ bias).
  /// Pre: propagated.size() == order(), each n x in.
  ag::Variable Apply(const std::vector<ag::Variable>& propagated) const;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  int order() const { return static_cast<int>(weights_.size()); }
  /// The k-th filter W_k (in x out).
  const Tensor& filter(int k) const { return weights_[k].value(); }

 private:
  int in_features_;
  int out_features_;
  std::vector<ag::Variable> weights_;  // K tensors, each in x out
  ag::Variable bias_;                  // 1 x out; undefined when disabled
};

}  // namespace cascn::nn

#endif  // CASCN_NN_CHEB_CONV_H_

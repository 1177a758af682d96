// ChebConv: K-order Chebyshev spectral graph convolution (Defferrard et al.
// 2016, Eq. 3 of the CasCN paper):
//
//   y = sum_{k=0}^{K-1} T_k(L~) X W_k
//
// where T_k is the k-th Chebyshev polynomial of the scaled Laplacian L~ and
// W_k are trainable filters. The Chebyshev basis {T_k(L~)} depends only on
// the graph, so callers precompute it once per cascade (see
// graph/chebyshev.h) and pass it to Forward. The graph-convolutional
// recurrent cells (nn/graph_rnn_cells.h) hold ChebConv filter banks but
// apply them with their own fused kernel.

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

  /// Applies the filter bank: sum_k T_k x W_k (+ bias).
  /// `cheb_basis` holds T_0..T_{K-1} of the scaled Laplacian (each n x n);
  /// `x` is the (n x in) signal. Pre: cheb_basis.size() == order().
  ag::Variable Forward(const std::vector<CsrMatrix>& cheb_basis,
                       const ag::Variable& x) const;

  /// The same filter bank over a signal that needs no gradient, given as
  /// its propagated operators P_k = T_k x (each n x in, exact zeros
  /// dropped): sum_k P_k W_k (+ bias), bit-identical to Forward. The
  /// recorded backward takes over the operators.
  /// Pre: propagated.size() == order().
  ag::Variable ForwardPropagated(std::vector<CsrMatrix> propagated) const;

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

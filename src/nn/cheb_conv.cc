#include "nn/cheb_conv.h"

#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "nn/init.h"
#include "obs/trace.h"

namespace cascn::nn {

ChebConv::ChebConv(int in_features, int out_features, int k, Rng& rng,
                   bool with_bias)
    : in_features_(in_features), out_features_(out_features) {
  CASCN_CHECK(k >= 1) << "Chebyshev order must be >= 1";
  for (int i = 0; i < k; ++i) {
    weights_.push_back(RegisterParameter(
        StrFormat("w%d", i), XavierUniform(in_features, out_features, rng)));
  }
  if (with_bias) bias_ = RegisterParameter("bias", Tensor(1, out_features));
}

ag::Variable ChebConv::Forward(const std::vector<CsrMatrix>& cheb_basis,
                               const ag::Variable& x) const {
  CASCN_TRACE_SPAN("cheb_conv");
  CASCN_CHECK(static_cast<int>(cheb_basis.size()) == order())
      << "Chebyshev basis order mismatch: basis has " << cheb_basis.size()
      << ", layer expects " << order();
  CASCN_CHECK(x.cols() == in_features_);
  ag::Variable out;
  for (size_t k = 0; k < weights_.size(); ++k) {
    ag::Variable term =
        ag::MatMul(ag::SparseMatMul(cheb_basis[k], x), weights_[k]);
    out = out.defined() ? ag::Add(out, term) : term;
  }
  if (bias_.defined()) out = ag::AddRowBroadcast(out, bias_);
  return out;
}

ag::Variable ChebConv::ForwardPropagated(
    std::vector<CsrMatrix> propagated) const {
  CASCN_TRACE_SPAN("cheb_conv");
  CASCN_CHECK(static_cast<int>(propagated.size()) == order())
      << "Chebyshev basis order mismatch: " << propagated.size()
      << " propagated operators, layer expects " << order();
  ag::Variable out;
  for (size_t k = 0; k < weights_.size(); ++k) {
    CASCN_CHECK(propagated[k].cols() == in_features_);
    // A row of P_k lists the nonzeros of that row of T_k x in column
    // order, which is what MatMul(T_k x, W_k) adds and what its backward
    // sums for W_k, so values and gradients match Forward bit for bit.
    ag::Variable term =
        ag::SparseMatMul(std::move(propagated[k]), weights_[k]);
    out = out.defined() ? ag::Add(out, term) : term;
  }
  if (bias_.defined()) out = ag::AddRowBroadcast(out, bias_);
  return out;
}

}  // namespace cascn::nn

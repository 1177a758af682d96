#include "nn/optimizer.h"

#include <cmath>

#include "common/math_util.h"

namespace cascn::nn {

void Optimizer::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

Adam::Adam(std::vector<ag::Variable> params, Options options)
    : Optimizer(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

Status Adam::RestoreState(const State& state) {
  if (state.m.size() != params_.size() || state.v.size() != params_.size())
    return Status::InvalidArgument(
        "optimizer state holds " + std::to_string(state.m.size()) +
        " moment tensors, optimizer has " + std::to_string(params_.size()) +
        " parameters");
  for (size_t i = 0; i < params_.size(); ++i) {
    const auto& p = params_[i].value();
    if (state.m[i].rows() != p.rows() || state.m[i].cols() != p.cols() ||
        state.v[i].rows() != p.rows() || state.v[i].cols() != p.cols())
      return Status::InvalidArgument(
          "optimizer state moment " + std::to_string(i) +
          " shape does not match its parameter");
  }
  t_ = state.t;
  m_ = state.m;
  v_ = state.v;
  return Status::OK();
}

void Adam::Step() {
  if (options_.clip_norm > 0) ClipGradNorm(params_, options_.clip_norm);
  ++t_;
  const double bias1 = 1.0 - IntegerPower(options_.beta1, t_);
  const double bias2 = 1.0 - IntegerPower(options_.beta2, t_);
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    const Tensor& g = p.grad();
    if (g.empty()) continue;  // parameter did not participate this step
    Tensor& value = p.mutable_value();
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    for (int r = 0; r < value.rows(); ++r) {
      for (int c = 0; c < value.cols(); ++c) {
        const double grad = g.At(r, c);
        m.At(r, c) = options_.beta1 * m.At(r, c) + (1 - options_.beta1) * grad;
        v.At(r, c) =
            options_.beta2 * v.At(r, c) + (1 - options_.beta2) * grad * grad;
        const double m_hat = m.At(r, c) / bias1;
        const double v_hat = v.At(r, c) / bias2;
        double update = m_hat / (std::sqrt(v_hat) + options_.epsilon);
        if (options_.weight_decay > 0)
          update += options_.weight_decay * value.At(r, c);
        value.At(r, c) -= options_.learning_rate * update;
      }
    }
    p.ZeroGrad();
  }
}

Sgd::Sgd(std::vector<ag::Variable> params, Options options)
    : Optimizer(std::move(params)), options_(options) {
  velocity_.reserve(params_.size());
  for (const auto& p : params_)
    velocity_.emplace_back(p.value().rows(), p.value().cols());
}

void Sgd::Step() {
  if (options_.clip_norm > 0) ClipGradNorm(params_, options_.clip_norm);
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    const Tensor& g = p.grad();
    if (g.empty()) continue;
    Tensor& value = p.mutable_value();
    Tensor& vel = velocity_[i];
    for (int r = 0; r < value.rows(); ++r) {
      for (int c = 0; c < value.cols(); ++c) {
        vel.At(r, c) =
            options_.momentum * vel.At(r, c) - options_.learning_rate * g.At(r, c);
        value.At(r, c) += vel.At(r, c);
      }
    }
    p.ZeroGrad();
  }
}

double GlobalGradNorm(const std::vector<ag::Variable>& params) {
  double total = 0;
  for (const auto& p : params) {
    const Tensor& g = p.grad();
    for (int r = 0; r < g.rows(); ++r)
      for (int c = 0; c < g.cols(); ++c) total += g.At(r, c) * g.At(r, c);
  }
  return std::sqrt(total);
}

void ClipGradNorm(std::vector<ag::Variable>& params, double max_norm) {
  if (max_norm <= 0) return;
  const double norm = GlobalGradNorm(params);
  if (norm <= max_norm || norm == 0) return;
  const double scale = max_norm / norm;
  for (auto& p : params) {
    if (p.grad().empty()) continue;
    p.mutable_grad().Scale(scale);
  }
}

}  // namespace cascn::nn

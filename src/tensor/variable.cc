#include "tensor/variable.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <initializer_list>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/math_util.h"

namespace cascn::ag {

namespace {

// Capture target for the calling thread; see ScopedGradCapture.
thread_local GradSink* t_active_sink = nullptr;

// Graph-recording mode for the calling thread; see NoGradGuard.
thread_local bool t_grad_enabled = true;

}  // namespace

namespace internal {

void Node::AccumGrad(const Tensor& g) {
  // Only requires_grad leaves (model parameters) are shared across
  // concurrently-built per-sample graphs; divert those into the thread's
  // sink when capture is active. Intermediate nodes are private to their
  // graph and accumulate in place as always.
  if (requires_grad && t_active_sink != nullptr) {
    t_active_sink->Accumulate(this, g);
    return;
  }
  if (grad.empty()) grad = Tensor(value.rows(), value.cols());
  grad.AddInPlace(g);
}

void Node::AccumGrads(const double* const* gs, size_t count, int stride) {
  const int rows = value.rows(), cols = value.cols();
  if (requires_grad && t_active_sink != nullptr) {
    Tensor g(rows, cols);
    for (size_t i = 0; i < count; ++i) {
      for (int r = 0; r < rows; ++r)
        std::copy(gs[i] + static_cast<size_t>(r) * stride,
                  gs[i] + static_cast<size_t>(r) * stride + cols,
                  g.data() + static_cast<size_t>(r) * cols);
      t_active_sink->Accumulate(this, g);
    }
    return;
  }
  if (grad.empty()) grad = Tensor(rows, cols);
  // A row takes every contribution before the next row, so each element
  // adds them in order while the row stays in cache.
  for (int r = 0; r < rows; ++r) {
    double* out = grad.data() + static_cast<size_t>(r) * cols;
    for (size_t i = 0; i < count; ++i) {
      const double* g = gs[i] + static_cast<size_t>(r) * stride;
      for (int c = 0; c < cols; ++c) out[c] += g[c];
    }
  }
}

}  // namespace internal

void GradSink::Accumulate(internal::Node* node, const Tensor& g) {
  auto [it, inserted] = index_.try_emplace(node, entries_.size());
  if (inserted) {
    entries_.emplace_back(node, g);
  } else {
    entries_[it->second].second.AddInPlace(g);
  }
}

void GradSink::Merge(const GradSink& other) {
  for (const auto& [node, g] : other.entries_) Accumulate(node, g);
}

void GradSink::Flush() {
  for (auto& [node, g] : entries_) {
    if (node->grad.empty())
      node->grad = Tensor(node->value.rows(), node->value.cols());
    node->grad.AddInPlace(g);
  }
  Clear();
}

void GradSink::Clear() {
  entries_.clear();
  index_.clear();
}

ScopedGradCapture::ScopedGradCapture(GradSink* sink)
    : previous_(t_active_sink) {
  t_active_sink = sink;
}

ScopedGradCapture::~ScopedGradCapture() { t_active_sink = previous_; }

bool GradEnabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(t_grad_enabled) {
  t_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { t_grad_enabled = previous_; }

using internal::Node;

namespace {

/// Whether an op over `parents` records its graph: grad mode is on and
/// some parent needs a gradient.
template <typename Parents>
bool RecordsGraph(const Parents& parents) {
  if (!t_grad_enabled) return false;
  for (const auto& p : parents)
    if (p->needs_grad) return true;
  return false;
}

/// A node that keeps only its value: no parents, no backward closure.
std::shared_ptr<Node> ValueNode(Tensor value) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  return node;
}

/// Creates an op node. When it records its graph, it keeps `parents` and
/// the `backward` closure; otherwise it is a ValueNode, and the closure is
/// never turned into a std::function.
template <typename Parents, typename BackwardFn>
std::shared_ptr<Node> MakeOpNodeOver(Tensor value, const Parents& parents,
                                     BackwardFn&& backward) {
  auto node = ValueNode(std::move(value));
  if (RecordsGraph(parents)) {
    node->needs_grad = true;
    node->parents.assign(parents.begin(), parents.end());
    node->backward = std::forward<BackwardFn>(backward);
  }
  return node;
}

template <typename BackwardFn>
std::shared_ptr<Node> MakeOpNode(
    Tensor value, std::initializer_list<std::shared_ptr<Node>> parents,
    BackwardFn&& backward) {
  return MakeOpNodeOver(std::move(value), parents,
                        std::forward<BackwardFn>(backward));
}

const std::shared_ptr<Node>& CheckedNode(const Variable& v) {
  CASCN_CHECK(v.defined()) << "operation on a null Variable";
  return v.node();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Scopes one op construction for the profiler: started before the forward
/// compute, finished via Done() with work estimates. Tags the node with its
/// op kind unconditionally (an int store) so Backward() can attribute the
/// closure even when profiling is switched on later; timing and FLOP
/// accumulation only happen while the profiler is active.
struct OpProfile {
  explicit OpProfile(obs::OpKind kind)
      : kind(kind), active(obs::Profiler::Get().enabled()) {
    if (active) start_ns = NowNs();
  }

  Variable Done(std::shared_ptr<Node> node, uint64_t forward_flops,
                uint64_t backward_flops) const {
    node->op = kind;
    if (active) {
      node->profile_backward_flops = backward_flops;
      obs::Profiler::Get().RecordForward(
          kind, NowNs() - start_ns, forward_flops,
          static_cast<uint64_t>(node->value.size()) * sizeof(double));
    }
    return Variable::FromNode(std::move(node));
  }

  obs::OpKind kind;
  bool active;
  uint64_t start_ns = 0;
};

uint64_t Elems(const std::shared_ptr<Node>& n) {
  return static_cast<uint64_t>(n->value.size());
}

}  // namespace

Variable Variable::Leaf(Tensor value, bool requires_grad) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  node->needs_grad = requires_grad;
  return FromNode(std::move(node));
}

Variable Variable::FromNode(std::shared_ptr<internal::Node> node) {
  Variable v;
  v.node_ = std::move(node);
  return v;
}

const Tensor& Variable::value() const {
  CASCN_CHECK(defined());
  return node_->value;
}

Tensor& Variable::mutable_value() {
  CASCN_CHECK(defined());
  return node_->value;
}

const Tensor& Variable::grad() const {
  CASCN_CHECK(defined());
  return node_->grad;
}

Tensor& Variable::mutable_grad() {
  CASCN_CHECK(defined());
  return node_->grad;
}

bool Variable::requires_grad() const {
  CASCN_CHECK(defined());
  return node_->requires_grad;
}

bool Variable::needs_grad() const {
  CASCN_CHECK(defined());
  return node_->needs_grad;
}

void Variable::ZeroGrad() {
  CASCN_CHECK(defined());
  if (!node_->grad.empty()) node_->grad.Zero();
}

void Variable::Backward() const {
  CASCN_CHECK(defined());
  CASCN_CHECK(node_->value.rows() == 1 && node_->value.cols() == 1)
      << "Backward() requires a scalar (1x1) loss";
  CASCN_CHECK(node_->needs_grad)
      << "Backward() on a Variable that recorded no graph: it was built "
         "under NoGradGuard or from inputs that need no gradient";
  // Iterative post-order DFS to produce a topological order (parents before
  // children in `order` after the walk; we then traverse in reverse).
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [node, next_parent] = stack.back();
    if (next_parent < node->parents.size()) {
      Node* parent = node->parents[next_parent].get();
      ++next_parent;
      if (parent->needs_grad && visited.insert(parent).second) {
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  Tensor seed(1, 1);
  seed.At(0, 0) = 1.0;
  node_->AccumGrad(seed);
  const bool profiling = obs::Profiler::Get().enabled();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (!node->backward || node->grad.empty()) continue;
    if (profiling) {
      const uint64_t start_ns = NowNs();
      node->backward(*node);
      obs::Profiler::Get().RecordBackward(node->op, NowNs() - start_ns,
                                          node->profile_backward_flops);
    } else {
      node->backward(*node);
    }
  }
}

// ---- Ops computed outside this file ---------------------------------------

Variable RecordOp(Tensor value, const std::vector<Variable>& parents,
                  std::function<void(const Tensor& grad)> backward,
                  uint64_t flops) {
  std::vector<std::shared_ptr<Node>> nodes;
  nodes.reserve(parents.size());
  for (const Variable& p : parents) nodes.push_back(CheckedNode(p));
  OpProfile prof(obs::OpKind::kRecordedOp);
  return prof.Done(
      MakeOpNodeOver(std::move(value), nodes,
                     [backward = std::move(backward)](Node& self) {
                       backward(self.grad);
                     }),
      flops, 2 * flops);
}

void AccumulateGrad(const Variable& v, const Tensor& g) {
  CASCN_CHECK(CheckedNode(v)->needs_grad)
      << "AccumulateGrad into a Variable that needs no gradient";
  v.node()->AccumGrad(g);
}

void AccumulateGrads(const Variable& v, const double* const* gs,
                     size_t count, int stride) {
  CASCN_CHECK(CheckedNode(v)->needs_grad)
      << "AccumulateGrads into a Variable that needs no gradient";
  CASCN_CHECK(stride >= v.cols()) << "AccumulateGrads rows overlap";
  v.node()->AccumGrads(gs, count, stride);
}

// ---- Element-wise and broadcast arithmetic --------------------------------

Variable Add(const Variable& a, const Variable& b) {
  const auto& an = CheckedNode(a);
  const auto& bn = CheckedNode(b);
  CASCN_CHECK(an->value.SameShape(bn->value)) << "Add shape mismatch";
  OpProfile prof(obs::OpKind::kAdd);
  const uint64_t n = Elems(an);
  return prof.Done(
      MakeOpNode(cascn::Add(an->value, bn->value), {an, bn},
                 [](Node& self) {
                   if (self.parents[0]->needs_grad)
                     self.parents[0]->AccumGrad(self.grad);
                   if (self.parents[1]->needs_grad)
                     self.parents[1]->AccumGrad(self.grad);
                 }),
      n, 2 * n);
}

Variable Sub(const Variable& a, const Variable& b) {
  const auto& an = CheckedNode(a);
  const auto& bn = CheckedNode(b);
  CASCN_CHECK(an->value.SameShape(bn->value)) << "Sub shape mismatch";
  OpProfile prof(obs::OpKind::kSub);
  const uint64_t n = Elems(an);
  return prof.Done(
      MakeOpNode(cascn::Sub(an->value, bn->value), {an, bn},
                 [](Node& self) {
                   if (self.parents[0]->needs_grad)
                     self.parents[0]->AccumGrad(self.grad);
                   if (self.parents[1]->needs_grad) {
                     Tensor neg = self.grad;
                     neg.Scale(-1.0);
                     self.parents[1]->AccumGrad(neg);
                   }
                 }),
      n, 2 * n);
}

Variable Mul(const Variable& a, const Variable& b) {
  const auto& an = CheckedNode(a);
  const auto& bn = CheckedNode(b);
  CASCN_CHECK(an->value.SameShape(bn->value)) << "Mul shape mismatch";
  OpProfile prof(obs::OpKind::kMul);
  const uint64_t n = Elems(an);
  return prof.Done(
      MakeOpNode(cascn::Mul(an->value, bn->value), {an, bn},
                 [](Node& self) {
                   if (self.parents[0]->needs_grad)
                     self.parents[0]->AccumGrad(
                         cascn::Mul(self.grad, self.parents[1]->value));
                   if (self.parents[1]->needs_grad)
                     self.parents[1]->AccumGrad(
                         cascn::Mul(self.grad, self.parents[0]->value));
                 }),
      n, 2 * n);
}

Variable AddRowBroadcast(const Variable& a, const Variable& b) {
  const auto& an = CheckedNode(a);
  const auto& bn = CheckedNode(b);
  CASCN_CHECK(bn->value.rows() == 1 && bn->value.cols() == an->value.cols())
      << "AddRowBroadcast expects b to be 1 x a.cols";
  OpProfile prof(obs::OpKind::kAddRowBroadcast);
  const uint64_t n = Elems(an);
  Tensor out = an->value;
  for (int i = 0; i < out.rows(); ++i)
    for (int j = 0; j < out.cols(); ++j) out.At(i, j) += bn->value.At(0, j);
  return prof.Done(
      MakeOpNode(std::move(out), {an, bn},
                 [](Node& self) {
                   if (self.parents[0]->needs_grad)
                     self.parents[0]->AccumGrad(self.grad);
                   if (self.parents[1]->needs_grad)
                     self.parents[1]->AccumGrad(self.grad.ColSums());
                 }),
      n, 2 * n);
}

Variable ScalarMul(const Variable& a, double alpha) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kScalarMul);
  const uint64_t n = Elems(an);
  Tensor out = an->value;
  out.Scale(alpha);
  return prof.Done(MakeOpNode(std::move(out), {an},
                              [alpha](Node& self) {
                                Tensor g = self.grad;
                                g.Scale(alpha);
                                self.parents[0]->AccumGrad(g);
                              }),
                   n, n);
}

Variable AddScalar(const Variable& a, double alpha) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kAddScalar);
  const uint64_t n = Elems(an);
  Tensor out = an->value;
  for (int i = 0; i < out.rows(); ++i)
    for (int j = 0; j < out.cols(); ++j) out.At(i, j) += alpha;
  return prof.Done(MakeOpNode(std::move(out), {an},
                              [](Node& self) {
                                self.parents[0]->AccumGrad(self.grad);
                              }),
                   n, n);
}

Variable ScaleByScalar(const Variable& a, const Variable& s) {
  const auto& an = CheckedNode(a);
  const auto& sn = CheckedNode(s);
  CASCN_CHECK(sn->value.rows() == 1 && sn->value.cols() == 1)
      << "ScaleByScalar expects a 1x1 scale";
  OpProfile prof(obs::OpKind::kScaleByScalar);
  const uint64_t n = Elems(an);
  Tensor out = an->value;
  out.Scale(sn->value.At(0, 0));
  return prof.Done(
      MakeOpNode(std::move(out), {an, sn},
                 [](Node& self) {
                   const double sv = self.parents[1]->value.At(0, 0);
                   if (self.parents[0]->needs_grad) {
                     Tensor g = self.grad;
                     g.Scale(sv);
                     self.parents[0]->AccumGrad(g);
                   }
                   if (self.parents[1]->needs_grad) {
                     Tensor gs(1, 1);
                     gs.At(0, 0) =
                         cascn::Mul(self.grad, self.parents[0]->value).Sum();
                     self.parents[1]->AccumGrad(gs);
                   }
                 }),
      n, 2 * n);
}

// ---- Matrix products -------------------------------------------------------

Variable MatMul(const Variable& a, const Variable& b) {
  const auto& an = CheckedNode(a);
  const auto& bn = CheckedNode(b);
  CASCN_CHECK(an->value.cols() == bn->value.rows()) << "MatMul shape mismatch";
  OpProfile prof(obs::OpKind::kMatMul);
  const uint64_t m = static_cast<uint64_t>(an->value.rows());
  const uint64_t k = static_cast<uint64_t>(an->value.cols());
  const uint64_t n = static_cast<uint64_t>(bn->value.cols());
  return prof.Done(
      MakeOpNode(cascn::MatMul(an->value, bn->value), {an, bn},
                 [](Node& self) {
                   // dL/dA = G B^T ; dL/dB = A^T G
                   if (self.parents[0]->needs_grad)
                     self.parents[0]->AccumGrad(
                         MatMulTransposeB(self.grad, self.parents[1]->value));
                   if (self.parents[1]->needs_grad)
                     self.parents[1]->AccumGrad(
                         MatMulTransposeA(self.parents[0]->value, self.grad));
                 }),
      2 * m * k * n, 4 * m * k * n);
}

namespace {

/// SparseMatMul for `Op` = const CsrMatrix& or CsrMatrix: the backward
/// closure copies the former and takes over the latter.
template <typename Op>
Variable SparseMatMulOwning(Op&& op, const Variable& x) {
  const auto& xn = CheckedNode(x);
  CASCN_CHECK(op.cols() == xn->value.rows()) << "SparseMatMul shape mismatch";
  OpProfile prof(obs::OpKind::kSparseMatMul);
  const uint64_t work = 2 * static_cast<uint64_t>(op.nnz()) *
                        static_cast<uint64_t>(xn->value.cols());
  Tensor out = op.MatMulDense(xn->value);
  // The backward closure owns the operator, so take it only when a
  // gradient will flow. The init-capture makes it a non-const member, so
  // handing the closure to std::function moves it instead of copying the
  // operator a second time.
  if (!t_grad_enabled || !xn->needs_grad)
    return prof.Done(ValueNode(std::move(out)), work, work);
  return prof.Done(
      MakeOpNode(std::move(out), {xn},
                 [op = CsrMatrix(std::forward<Op>(op))](Node& self) {
                   // dL/dX = Op^T G
                   self.parents[0]->AccumGrad(
                       op.TransposeMatMulDense(self.grad));
                 }),
      work, work);
}

}  // namespace

Variable SparseMatMul(const CsrMatrix& op, const Variable& x) {
  return SparseMatMulOwning(op, x);
}

Variable SparseMatMul(CsrMatrix&& op, const Variable& x) {
  return SparseMatMulOwning(std::move(op), x);
}

// ---- Nonlinearities --------------------------------------------------------

Variable Sigmoid(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kSigmoid);
  const uint64_t n = Elems(an);
  Tensor out = an->value.Map([](double x) { return cascn::Sigmoid(x); });
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [](Node& self) {
                   Tensor g(self.value.rows(), self.value.cols());
                   for (int i = 0; i < g.rows(); ++i)
                     for (int j = 0; j < g.cols(); ++j) {
                       const double y = self.value.At(i, j);
                       g.At(i, j) = self.grad.At(i, j) * y * (1.0 - y);
                     }
                   self.parents[0]->AccumGrad(g);
                 }),
      4 * n, 3 * n);
}

Variable Tanh(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kTanh);
  const uint64_t n = Elems(an);
  Tensor out = an->value.Map([](double x) { return cascn::Tanh(x); });
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [](Node& self) {
                   Tensor g(self.value.rows(), self.value.cols());
                   for (int i = 0; i < g.rows(); ++i)
                     for (int j = 0; j < g.cols(); ++j) {
                       const double y = self.value.At(i, j);
                       g.At(i, j) = self.grad.At(i, j) * (1.0 - y * y);
                     }
                   self.parents[0]->AccumGrad(g);
                 }),
      4 * n, 3 * n);
}

Variable Relu(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kRelu);
  const uint64_t n = Elems(an);
  Tensor out = an->value.Map([](double x) { return x > 0 ? x : 0.0; });
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [](Node& self) {
                   Tensor g(self.value.rows(), self.value.cols());
                   for (int i = 0; i < g.rows(); ++i)
                     for (int j = 0; j < g.cols(); ++j)
                       g.At(i, j) =
                           self.value.At(i, j) > 0 ? self.grad.At(i, j) : 0.0;
                   self.parents[0]->AccumGrad(g);
                 }),
      n, n);
}

Variable Square(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kSquare);
  const uint64_t n = Elems(an);
  Tensor out = an->value.Map([](double x) { return x * x; });
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [](Node& self) {
                   Tensor g(self.value.rows(), self.value.cols());
                   const Tensor& x = self.parents[0]->value;
                   for (int i = 0; i < g.rows(); ++i)
                     for (int j = 0; j < g.cols(); ++j)
                       g.At(i, j) = self.grad.At(i, j) * 2.0 * x.At(i, j);
                   self.parents[0]->AccumGrad(g);
                 }),
      n, 2 * n);
}

Variable Softplus(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kSoftplus);
  const uint64_t n = Elems(an);
  Tensor out = an->value.Map([](double x) { return cascn::Softplus(x); });
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [](Node& self) {
                   Tensor g(self.value.rows(), self.value.cols());
                   const Tensor& x = self.parents[0]->value;
                   for (int i = 0; i < g.rows(); ++i)
                     for (int j = 0; j < g.cols(); ++j) {
                       g.At(i, j) =
                           self.grad.At(i, j) * cascn::Sigmoid(x.At(i, j));
                     }
                   self.parents[0]->AccumGrad(g);
                 }),
      4 * n, 4 * n);
}

Variable SoftmaxRows(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kSoftmaxRows);
  const uint64_t n = Elems(an);
  Tensor out(an->value.rows(), an->value.cols());
  for (int i = 0; i < out.rows(); ++i) {
    double mx = -1e300;
    for (int j = 0; j < out.cols(); ++j)
      mx = std::max(mx, an->value.At(i, j));
    double denom = 0;
    for (int j = 0; j < out.cols(); ++j) {
      out.At(i, j) = Exp(an->value.At(i, j) - mx);
      denom += out.At(i, j);
    }
    for (int j = 0; j < out.cols(); ++j) out.At(i, j) /= denom;
  }
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [](Node& self) {
                   // Per row: dL/dx_j = y_j (g_j - sum_k g_k y_k)
                   Tensor g(self.value.rows(), self.value.cols());
                   for (int i = 0; i < g.rows(); ++i) {
                     double dot = 0;
                     for (int j = 0; j < g.cols(); ++j)
                       dot += self.grad.At(i, j) * self.value.At(i, j);
                     for (int j = 0; j < g.cols(); ++j)
                       g.At(i, j) =
                           self.value.At(i, j) * (self.grad.At(i, j) - dot);
                   }
                   self.parents[0]->AccumGrad(g);
                 }),
      5 * n, 3 * n);
}

// ---- Reductions and reshaping ---------------------------------------------

Variable Sum(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kSum);
  const uint64_t n = Elems(an);
  Tensor out(1, 1);
  out.At(0, 0) = an->value.Sum();
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [](Node& self) {
                   const double g = self.grad.At(0, 0);
                   Tensor full(self.parents[0]->value.rows(),
                               self.parents[0]->value.cols(), g);
                   self.parents[0]->AccumGrad(full);
                 }),
      n, n);
}

Variable Mean(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kMean);
  const uint64_t n = Elems(an);
  const double inv = 1.0 / std::max(1, an->value.size());
  Tensor out(1, 1);
  out.At(0, 0) = an->value.Sum() * inv;
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [inv](Node& self) {
                   const double g = self.grad.At(0, 0) * inv;
                   Tensor full(self.parents[0]->value.rows(),
                               self.parents[0]->value.cols(), g);
                   self.parents[0]->AccumGrad(full);
                 }),
      n, n);
}

Variable SumRows(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kSumRows);
  const uint64_t n = Elems(an);
  return prof.Done(
      MakeOpNode(an->value.ColSums(), {an},
                 [](Node& self) {
                   Tensor g(self.parents[0]->value.rows(),
                            self.parents[0]->value.cols());
                   for (int i = 0; i < g.rows(); ++i)
                     for (int j = 0; j < g.cols(); ++j)
                       g.At(i, j) = self.grad.At(0, j);
                   self.parents[0]->AccumGrad(g);
                 }),
      n, n);
}

Variable MeanRows(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kMeanRows);
  const uint64_t n = Elems(an);
  const double inv = 1.0 / std::max(1, an->value.rows());
  Tensor out = an->value.ColSums();
  out.Scale(inv);
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [inv](Node& self) {
                   Tensor g(self.parents[0]->value.rows(),
                            self.parents[0]->value.cols());
                   for (int i = 0; i < g.rows(); ++i)
                     for (int j = 0; j < g.cols(); ++j)
                       g.At(i, j) = self.grad.At(0, j) * inv;
                   self.parents[0]->AccumGrad(g);
                 }),
      n, n);
}

Variable ConcatCols(const Variable& a, const Variable& b) {
  const auto& an = CheckedNode(a);
  const auto& bn = CheckedNode(b);
  CASCN_CHECK(an->value.rows() == bn->value.rows())
      << "ConcatCols row mismatch";
  OpProfile prof(obs::OpKind::kConcatCols);
  const int ca = an->value.cols(), cb = bn->value.cols();
  Tensor out(an->value.rows(), ca + cb);
  for (int i = 0; i < out.rows(); ++i) {
    for (int j = 0; j < ca; ++j) out.At(i, j) = an->value.At(i, j);
    for (int j = 0; j < cb; ++j) out.At(i, ca + j) = bn->value.At(i, j);
  }
  return prof.Done(
      MakeOpNode(std::move(out), {an, bn},
                 [ca, cb](Node& self) {
                   if (self.parents[0]->needs_grad) {
                     Tensor ga(self.grad.rows(), ca);
                     for (int i = 0; i < ga.rows(); ++i)
                       for (int j = 0; j < ca; ++j)
                         ga.At(i, j) = self.grad.At(i, j);
                     self.parents[0]->AccumGrad(ga);
                   }
                   if (self.parents[1]->needs_grad) {
                     Tensor gb(self.grad.rows(), cb);
                     for (int i = 0; i < gb.rows(); ++i)
                       for (int j = 0; j < cb; ++j)
                         gb.At(i, j) = self.grad.At(i, ca + j);
                     self.parents[1]->AccumGrad(gb);
                   }
                 }),
      0, 0);
}

Variable ConcatRows(const std::vector<Variable>& parts) {
  CASCN_CHECK(!parts.empty());
  OpProfile prof(obs::OpKind::kConcatRows);
  std::vector<std::shared_ptr<internal::Node>> nodes;
  int total_rows = 0;
  const int cols = parts[0].cols();
  for (const auto& p : parts) {
    CASCN_CHECK(p.cols() == cols) << "ConcatRows col mismatch";
    nodes.push_back(CheckedNode(p));
    total_rows += p.rows();
  }
  Tensor out(total_rows, cols);
  int r = 0;
  for (const auto& n : nodes) {
    for (int i = 0; i < n->value.rows(); ++i, ++r)
      for (int j = 0; j < cols; ++j) out.At(r, j) = n->value.At(i, j);
  }
  return prof.Done(
      MakeOpNodeOver(std::move(out), nodes,
                 [](Node& self) {
                   int r = 0;
                   for (auto& parent : self.parents) {
                     const int pr = parent->value.rows();
                     if (parent->needs_grad) {
                       Tensor g(pr, parent->value.cols());
                       for (int i = 0; i < pr; ++i)
                         for (int j = 0; j < g.cols(); ++j)
                           g.At(i, j) = self.grad.At(r + i, j);
                       parent->AccumGrad(g);
                     }
                     r += pr;
                   }
                 }),
      0, 0);
}

Variable SliceRows(const Variable& a, int start, int len) {
  const auto& an = CheckedNode(a);
  CASCN_CHECK(start >= 0 && len >= 0 && start + len <= an->value.rows())
      << "SliceRows out of range";
  OpProfile prof(obs::OpKind::kSliceRows);
  Tensor out(len, an->value.cols());
  for (int i = 0; i < len; ++i)
    for (int j = 0; j < out.cols(); ++j)
      out.At(i, j) = an->value.At(start + i, j);
  return prof.Done(
      MakeOpNode(std::move(out), {an},
                 [start, len](Node& self) {
                   Tensor g(self.parents[0]->value.rows(),
                            self.parents[0]->value.cols());
                   for (int i = 0; i < len; ++i)
                     for (int j = 0; j < g.cols(); ++j)
                       g.At(start + i, j) = self.grad.At(i, j);
                   self.parents[0]->AccumGrad(g);
                 }),
      0, 0);
}

Variable GatherRows(const Variable& table, const std::vector<int>& indices) {
  const auto& tn = CheckedNode(table);
  OpProfile prof(obs::OpKind::kGatherRows);
  Tensor out(static_cast<int>(indices.size()), tn->value.cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    CASCN_CHECK(indices[i] >= 0 && indices[i] < tn->value.rows())
        << "GatherRows index out of range";
    for (int j = 0; j < out.cols(); ++j)
      out.At(static_cast<int>(i), j) = tn->value.At(indices[i], j);
  }
  return prof.Done(
      MakeOpNode(std::move(out), {tn},
                 [indices](Node& self) {
                   Tensor g(self.parents[0]->value.rows(),
                            self.parents[0]->value.cols());
                   for (size_t i = 0; i < indices.size(); ++i)
                     for (int j = 0; j < g.cols(); ++j)
                       g.At(indices[i], j) +=
                           self.grad.At(static_cast<int>(i), j);
                   self.parents[0]->AccumGrad(g);
                 }),
      0, static_cast<uint64_t>(indices.size()) *
             static_cast<uint64_t>(tn->value.cols()));
}

Variable Transpose(const Variable& a) {
  const auto& an = CheckedNode(a);
  OpProfile prof(obs::OpKind::kTranspose);
  return prof.Done(
      MakeOpNode(an->value.Transposed(), {an},
                 [](Node& self) {
                   self.parents[0]->AccumGrad(self.grad.Transposed());
                 }),
      0, 0);
}

}  // namespace cascn::ag

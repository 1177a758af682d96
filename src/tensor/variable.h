// Reverse-mode automatic differentiation over Tensor values.
//
// A Variable wraps a node in a dynamically-built computation graph. Each
// forward op records a backward closure; Backward() on a scalar loss
// topologically sorts the graph and accumulates gradients into every node
// with requires_grad set (model parameters are such leaf nodes and persist
// across per-sample graphs, so their .grad() accumulates over a minibatch
// until the optimizer consumes and zeroes it).
//
// Graphs hold parent references only, so per-sample graph nodes are freed
// when the loss Variable goes out of scope while parameter leaves survive.
//
// Inference mode: while a NoGradGuard is alive on a thread, ops on that
// thread compute values only. The same holds for any op none of whose
// inputs needs a gradient. Such a node keeps no parents and no backward
// closure, so a served forward allocates one node per op and frees each
// intermediate as soon as nothing reads it.
//
// The op set is exactly what the CasCN models and baselines need: dense and
// sparse matmul, broadcast bias, gate nonlinearities, pooling, concat/slice,
// row gather (embeddings), row softmax (attention), and scalar scaling
// (learned time decay).

#ifndef CASCN_TENSOR_VARIABLE_H_
#define CASCN_TENSOR_VARIABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/profiler.h"
#include "tensor/csr_matrix.h"
#include "tensor/tensor.h"

namespace cascn::ag {

namespace internal {

/// One node of the computation graph.
struct Node {
  Tensor value;
  Tensor grad;  // allocated lazily on first accumulation
  bool requires_grad = false;
  bool needs_grad = false;  // requires_grad or any ancestor requires it
  // The op that produced this node; Backward() attributes the backward
  // closure's wall-clock to it when the profiler is active.
  obs::OpKind op = obs::OpKind::kLeaf;
  // Estimated backward FLOPs, set at construction while profiling.
  uint64_t profile_backward_flops = 0;
  std::vector<std::shared_ptr<Node>> parents;
  // Propagates grad (already accumulated in `grad`) to parents.
  std::function<void(Node&)> backward;

  /// grad += g, allocating on first use.
  void AccumGrad(const Tensor& g);
  /// grad += gs[0], ..., += gs[count - 1] (rows `stride` apart), in one
  /// pass.
  void AccumGrads(const double* const* gs, size_t count, int stride);
};

}  // namespace internal

/// Value-semantic handle to a computation-graph node.
class Variable {
 public:
  /// Null handle; most ops CHECK against defined().
  Variable() = default;

  /// Leaf node. requires_grad marks it as a trainable parameter.
  static Variable Leaf(Tensor value, bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const;
  Tensor& mutable_value();

  /// Gradient accumulated by the last Backward() pass(es). Zero-sized until
  /// a gradient has been accumulated.
  const Tensor& grad() const;

  /// Mutable access to the gradient buffer (optimizer internals).
  Tensor& mutable_grad();

  bool requires_grad() const;

  /// Whether a gradient flows into this node: it is a requires_grad leaf,
  /// or an op recorded over an input that needs one.
  bool needs_grad() const;

  /// Zeroes this node's gradient buffer.
  void ZeroGrad();

  int rows() const { return value().rows(); }
  int cols() const { return value().cols(); }

  /// Runs backpropagation from this node. Pre: 1x1 scalar that recorded a
  /// graph (needs_grad(); not built under NoGradGuard).
  void Backward() const;

  /// Internal: used by op constructors.
  const std::shared_ptr<internal::Node>& node() const { return node_; }
  static Variable FromNode(std::shared_ptr<internal::Node> node);

 private:
  std::shared_ptr<internal::Node> node_;
};

// ---- Inference mode --------------------------------------------------------

/// Whether ops on the calling thread record the graph. On by default on
/// every thread, pool workers included.
bool GradEnabled();

/// RAII: turns graph recording off on the calling thread, restoring the
/// previous mode on destruction (guards nest). The mode is per thread, so
/// work fanned out to a pool needs its own guard inside each task.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();

  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

// ---- Concurrent-backward gradient capture ---------------------------------

/// Collects the parameter-leaf gradient accumulations of one or more
/// Backward() passes instead of letting them land in the shared
/// Node::grad buffers. While a ScopedGradCapture is active on a thread,
/// every AccumGrad on a requires_grad leaf is diverted into the thread's
/// sink; intermediate (per-graph, unshared) nodes are unaffected. This is
/// what makes per-sample Backward() calls safe to run concurrently: each
/// worker writes only its own sink, and the trainer later combines sinks in
/// a fixed order (tree reduction over sample indices) so the floating-point
/// accumulation order — and therefore every resulting bit — is independent
/// of the thread count.
///
/// Entry order within a sink is the (deterministic) order leaves are first
/// reached by the sample's serial backward pass.
class GradSink {
 public:
  /// sink[node] += g, allocating the entry on first use.
  void Accumulate(internal::Node* node, const Tensor& g);

  /// this[node] += other[node] for every entry of `other`, appending
  /// entries for leaves this sink has not seen. `other` is not modified.
  void Merge(const GradSink& other);

  /// Applies every captured gradient to its node's shared grad buffer
  /// (exactly as AccumGrad would have without capture) and clears the sink.
  /// Call outside any capture scope, from one thread.
  void Flush();

  void Clear();
  bool empty() const { return entries_.empty(); }

 private:
  std::vector<std::pair<internal::Node*, Tensor>> entries_;
  std::unordered_map<internal::Node*, size_t> index_;
};

/// RAII: installs `sink` as the calling thread's gradient capture target,
/// restoring the previous target (usually none) on destruction.
class ScopedGradCapture {
 public:
  explicit ScopedGradCapture(GradSink* sink);
  ~ScopedGradCapture();

  ScopedGradCapture(const ScopedGradCapture&) = delete;
  ScopedGradCapture& operator=(const ScopedGradCapture&) = delete;

 private:
  GradSink* previous_;
};

// ---- Ops computed outside this file ---------------------------------------

/// Records an op whose forward the caller has already computed: `value`
/// depends on `parents`. When grad mode is on and some parent needs a
/// gradient, Backward() calls `backward` once with the result's accumulated
/// gradient, and `backward` hands each parent that needs one its share
/// through AccumulateGrad, in the order it chooses. Otherwise the result
/// keeps only its value and `backward` is dropped. `flops` is the forward's
/// estimated FLOPs for the profiler (backward is counted as twice that).
Variable RecordOp(Tensor value, const std::vector<Variable>& parents,
                  std::function<void(const Tensor& grad)> backward,
                  uint64_t flops);

/// v's gradient += g, from inside a RecordOp backward. Like every op's
/// backward, it goes to the thread's GradSink for a parameter leaf while
/// one is active. Pre: v.needs_grad().
void AccumulateGrad(const Variable& v, const Tensor& g);

/// v's gradient += gs[0], then gs[1], ..., then gs[count - 1], in one pass
/// over the buffer: every element sums as `count` AccumulateGrad calls in
/// that order would. Each gs[i] points to v-shaped values whose rows are
/// `stride` doubles apart. Pre: v.needs_grad().
void AccumulateGrads(const Variable& v, const double* const* gs,
                     size_t count, int stride);

// ---- Element-wise and broadcast arithmetic --------------------------------

/// a + b. Pre: same shape.
Variable Add(const Variable& a, const Variable& b);
/// a - b. Pre: same shape.
Variable Sub(const Variable& a, const Variable& b);
/// Element-wise a * b. Pre: same shape.
Variable Mul(const Variable& a, const Variable& b);
/// a (n x d) + row vector b (1 x d) broadcast over rows.
Variable AddRowBroadcast(const Variable& a, const Variable& b);
/// alpha * a for a compile-time-known scalar.
Variable ScalarMul(const Variable& a, double alpha);
/// a + alpha element-wise.
Variable AddScalar(const Variable& a, double alpha);
/// a scaled by a learned 1x1 Variable s: s * a.
Variable ScaleByScalar(const Variable& a, const Variable& s);

// ---- Matrix products -------------------------------------------------------

/// Dense a @ b. Pre: a.cols == b.rows.
Variable MatMul(const Variable& a, const Variable& b);
/// Constant sparse operator @ dense variable. Pre: op.cols == x.rows.
Variable SparseMatMul(const CsrMatrix& op, const Variable& x);
/// The same, with the backward taking over `op` instead of a copy.
Variable SparseMatMul(CsrMatrix&& op, const Variable& x);

// ---- Nonlinearities --------------------------------------------------------

Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);
Variable Relu(const Variable& a);
/// Element-wise square.
Variable Square(const Variable& a);
/// Numerically-stable softplus: log(1 + exp(a)). Used to keep learned time-
/// decay weights positive.
Variable Softplus(const Variable& a);
/// Row-wise softmax (attention weights).
Variable SoftmaxRows(const Variable& a);

// ---- Reductions and reshaping ---------------------------------------------

/// Sum of all elements -> 1x1.
Variable Sum(const Variable& a);
/// Mean of all elements -> 1x1.
Variable Mean(const Variable& a);
/// Column-wise mean over rows: n x d -> 1 x d.
Variable MeanRows(const Variable& a);
/// Column-wise sum over rows: n x d -> 1 x d.
Variable SumRows(const Variable& a);
/// Horizontal concat: n x d1, n x d2 -> n x (d1+d2).
Variable ConcatCols(const Variable& a, const Variable& b);
/// Vertical concat of equally-wide blocks.
Variable ConcatRows(const std::vector<Variable>& parts);
/// Rows [start, start+len) of a.
Variable SliceRows(const Variable& a, int start, int len);
/// Gathers rows of `table` by index (embedding lookup); indices may repeat.
Variable GatherRows(const Variable& table, const std::vector<int>& indices);
/// Transpose.
Variable Transpose(const Variable& a);

}  // namespace cascn::ag

#endif  // CASCN_TENSOR_VARIABLE_H_

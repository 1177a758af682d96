// Per-op autograd profiler and allocation accounting.
//
// The profiler answers two questions the trace spans cannot: which autograd
// op kind dominates a training step (spans cover whole layers, not the
// MatMul vs. SparseMatMul vs. gate-nonlinearity split inside them), and how
// much tensor memory is live / was peak-live while a computation graph is
// retained for backward.
//
//   CASCN_PROFILE=1 ./bench_micro_kernels      # per-op table on exit
//
// Recording sites:
//   * every `ag::` op constructor in tensor/variable.cc records forward
//     wall-clock, call count, estimated FLOPs, and output bytes;
//   * `Variable::Backward()` times each node's backward closure and
//     attributes it to the node's op kind;
//   * `Tensor` and `CsrMatrix` storage uses TrackingAllocator, so every
//     tensor-payload allocation/free updates live/peak byte accounting.
//
// Disabled (the default), every hook is one relaxed atomic load and a
// branch — mirroring CASCN_TRACE — so instrumented hot paths stay at
// production speed. Enable at runtime with `Profiler::Get().Enable()` or by
// setting the CASCN_PROFILE environment variable to anything but "0".
// Counters use relaxed atomics throughout: recording never takes a lock.
//
// Enabling mid-run skews memory accounting (frees of tensors allocated
// while disabled are not matched); call Reset() right after Enable() when
// measuring a bounded region.

#ifndef CASCN_OBS_PROFILER_H_
#define CASCN_OBS_PROFILER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cascn::obs {

class MetricsRegistry;

/// Autograd op kinds, one per `ag::` op constructor plus kLeaf for leaf
/// nodes (never recorded; the default for nodes built while disabled).
enum class OpKind : int {
  kLeaf = 0,
  kAdd,
  kSub,
  kMul,
  kAddRowBroadcast,
  kScalarMul,
  kAddScalar,
  kScaleByScalar,
  kMatMul,
  kSparseMatMul,
  kSigmoid,
  kTanh,
  kRelu,
  kSquare,
  kSoftplus,
  kSoftmaxRows,
  kSum,
  kMean,
  kSumRows,
  kMeanRows,
  kConcatCols,
  kConcatRows,
  kSliceRows,
  kGatherRows,
  kTranspose,
  // An op computed outside tensor/variable.cc and recorded through
  // ag::RecordOp (the graph-convolutional recurrent steps), with the
  // caller's FLOP estimate.
  kRecordedOp,
  kNumOpKinds,
};

constexpr int kNumOpKinds = static_cast<int>(OpKind::kNumOpKinds);

/// Stable snake_case name ("mat_mul", "sparse_mat_mul", ...).
std::string_view OpKindName(OpKind kind);

/// Point-in-time totals for one op kind.
struct OpStats {
  uint64_t forward_calls = 0;
  uint64_t forward_ns = 0;
  uint64_t forward_flops = 0;   // estimated from input dims
  uint64_t forward_bytes = 0;   // output bytes freshly written
  uint64_t backward_calls = 0;
  uint64_t backward_ns = 0;
  uint64_t backward_flops = 0;  // estimated from input dims
};

/// Process-global per-op and memory profiler. All methods are thread-safe.
class Profiler {
 public:
  static Profiler& Get();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Zeroes every op stat and the memory accounting (live, peak, counts).
  void Reset();

  // ---- Op recording (called from tensor/variable.cc) ----------------------

  void RecordForward(OpKind kind, uint64_t ns, uint64_t flops,
                     uint64_t bytes);
  void RecordBackward(OpKind kind, uint64_t ns, uint64_t flops);

  // ---- Allocation accounting (called from TrackingAllocator) --------------

  void OnAlloc(size_t bytes) {
    if (!enabled()) return;
    const int64_t live =
        live_bytes_.fetch_add(static_cast<int64_t>(bytes),
                              std::memory_order_relaxed) +
        static_cast<int64_t>(bytes);
    alloc_count_.fetch_add(1, std::memory_order_relaxed);
    int64_t peak = peak_live_bytes_.load(std::memory_order_relaxed);
    while (live > peak && !peak_live_bytes_.compare_exchange_weak(
                              peak, live, std::memory_order_relaxed)) {
    }
  }

  void OnFree(size_t bytes) {
    if (!enabled()) return;
    live_bytes_.fetch_sub(static_cast<int64_t>(bytes),
                          std::memory_order_relaxed);
    free_count_.fetch_add(1, std::memory_order_relaxed);
  }

  int64_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }
  int64_t peak_live_bytes() const {
    return peak_live_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t alloc_count() const {
    return alloc_count_.load(std::memory_order_relaxed);
  }
  uint64_t free_count() const {
    return free_count_.load(std::memory_order_relaxed);
  }

  // ---- Reporting ----------------------------------------------------------

  struct Snapshot {
    std::array<OpStats, kNumOpKinds> ops{};
    int64_t live_bytes = 0;
    int64_t peak_live_bytes = 0;
    uint64_t alloc_count = 0;
    uint64_t free_count = 0;

    /// Sum of forward_ns + backward_ns over every op kind.
    uint64_t TotalNs() const;
    /// Per-op breakdown + memory as one JSON object, ops with calls only,
    /// sorted by total time descending.
    std::string ToJson() const;
    /// Human-readable per-op table (time, calls, est. GFLOP, bytes) plus a
    /// memory summary, sorted by total time descending.
    std::string ToTable() const;
  };

  Snapshot TakeSnapshot() const;

  /// Bridges the snapshot into `registry` as gauges: per-op
  /// `profile_op_<name>_{forward_ns,backward_ns,calls}` (ops with calls
  /// only) plus `profile_{live,peak_live}_bytes` and
  /// `profile_{alloc,free}_total`.
  void ExportToRegistry(MetricsRegistry& registry) const;

 private:
  struct AtomicOpStats {
    std::atomic<uint64_t> forward_calls{0};
    std::atomic<uint64_t> forward_ns{0};
    std::atomic<uint64_t> forward_flops{0};
    std::atomic<uint64_t> forward_bytes{0};
    std::atomic<uint64_t> backward_calls{0};
    std::atomic<uint64_t> backward_ns{0};
    std::atomic<uint64_t> backward_flops{0};
  };

  Profiler();

  std::atomic<bool> enabled_{false};
  std::array<AtomicOpStats, kNumOpKinds> ops_{};
  std::atomic<int64_t> live_bytes_{0};
  std::atomic<int64_t> peak_live_bytes_{0};
  std::atomic<uint64_t> alloc_count_{0};
  std::atomic<uint64_t> free_count_{0};
};

/// std::allocator wrapper that reports payload bytes to the Profiler.
/// Stateless; all instances are interchangeable, so container copy/move
/// semantics are unchanged.
template <typename T>
struct TrackingAllocator {
  using value_type = T;

  TrackingAllocator() noexcept = default;
  template <typename U>
  TrackingAllocator(const TrackingAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(size_t n) {
    Profiler::Get().OnAlloc(n * sizeof(T));
    return std::allocator<T>().allocate(n);
  }
  void deallocate(T* p, size_t n) noexcept {
    Profiler::Get().OnFree(n * sizeof(T));
    std::allocator<T>().deallocate(p, n);
  }
};

template <typename T, typename U>
bool operator==(const TrackingAllocator<T>&, const TrackingAllocator<U>&) {
  return true;
}
template <typename T, typename U>
bool operator!=(const TrackingAllocator<T>&, const TrackingAllocator<U>&) {
  return false;
}

/// Vector whose payload is counted in the profiler's memory accounting.
template <typename T>
using TrackedVector = std::vector<T, TrackingAllocator<T>>;

}  // namespace cascn::obs

#endif  // CASCN_OBS_PROFILER_H_

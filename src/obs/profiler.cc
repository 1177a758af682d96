#include "obs/profiler.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/string_util.h"
#include "obs/metrics_registry.h"

namespace cascn::obs {

namespace {

/// Ops sorted by forward+backward time, busiest first; idle ops dropped.
std::vector<std::pair<OpKind, const OpStats*>> BusyOps(
    const Profiler::Snapshot& snap) {
  std::vector<std::pair<OpKind, const OpStats*>> busy;
  for (int i = 0; i < kNumOpKinds; ++i) {
    const OpStats& s = snap.ops[static_cast<size_t>(i)];
    if (s.forward_calls + s.backward_calls > 0)
      busy.emplace_back(static_cast<OpKind>(i), &s);
  }
  std::sort(busy.begin(), busy.end(), [](const auto& a, const auto& b) {
    return a.second->forward_ns + a.second->backward_ns >
           b.second->forward_ns + b.second->backward_ns;
  });
  return busy;
}

}  // namespace

std::string_view OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kLeaf: return "leaf";
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kMul: return "mul";
    case OpKind::kAddRowBroadcast: return "add_row_broadcast";
    case OpKind::kScalarMul: return "scalar_mul";
    case OpKind::kAddScalar: return "add_scalar";
    case OpKind::kScaleByScalar: return "scale_by_scalar";
    case OpKind::kMatMul: return "mat_mul";
    case OpKind::kSparseMatMul: return "sparse_mat_mul";
    case OpKind::kSigmoid: return "sigmoid";
    case OpKind::kTanh: return "tanh";
    case OpKind::kRelu: return "relu";
    case OpKind::kSquare: return "square";
    case OpKind::kSoftplus: return "softplus";
    case OpKind::kSoftmaxRows: return "softmax_rows";
    case OpKind::kSum: return "sum";
    case OpKind::kMean: return "mean";
    case OpKind::kSumRows: return "sum_rows";
    case OpKind::kMeanRows: return "mean_rows";
    case OpKind::kConcatCols: return "concat_cols";
    case OpKind::kConcatRows: return "concat_rows";
    case OpKind::kSliceRows: return "slice_rows";
    case OpKind::kGatherRows: return "gather_rows";
    case OpKind::kTranspose: return "transpose";
    case OpKind::kRecordedOp: return "recorded_op";
    case OpKind::kNumOpKinds: break;
  }
  return "unknown";
}

Profiler::Profiler() {
  const char* env = std::getenv("CASCN_PROFILE");
  if (env != nullptr && env[0] != '\0' && std::string_view(env) != "0")
    enabled_.store(true, std::memory_order_relaxed);
}

Profiler& Profiler::Get() {
  static Profiler* profiler = new Profiler();  // leaked: see Tracer::Get
  return *profiler;
}

void Profiler::Reset() {
  for (auto& op : ops_) {
    op.forward_calls.store(0, std::memory_order_relaxed);
    op.forward_ns.store(0, std::memory_order_relaxed);
    op.forward_flops.store(0, std::memory_order_relaxed);
    op.forward_bytes.store(0, std::memory_order_relaxed);
    op.backward_calls.store(0, std::memory_order_relaxed);
    op.backward_ns.store(0, std::memory_order_relaxed);
    op.backward_flops.store(0, std::memory_order_relaxed);
  }
  live_bytes_.store(0, std::memory_order_relaxed);
  peak_live_bytes_.store(0, std::memory_order_relaxed);
  alloc_count_.store(0, std::memory_order_relaxed);
  free_count_.store(0, std::memory_order_relaxed);
}

void Profiler::RecordForward(OpKind kind, uint64_t ns, uint64_t flops,
                             uint64_t bytes) {
  AtomicOpStats& op = ops_[static_cast<size_t>(kind)];
  op.forward_calls.fetch_add(1, std::memory_order_relaxed);
  op.forward_ns.fetch_add(ns, std::memory_order_relaxed);
  op.forward_flops.fetch_add(flops, std::memory_order_relaxed);
  op.forward_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void Profiler::RecordBackward(OpKind kind, uint64_t ns, uint64_t flops) {
  AtomicOpStats& op = ops_[static_cast<size_t>(kind)];
  op.backward_calls.fetch_add(1, std::memory_order_relaxed);
  op.backward_ns.fetch_add(ns, std::memory_order_relaxed);
  op.backward_flops.fetch_add(flops, std::memory_order_relaxed);
}

Profiler::Snapshot Profiler::TakeSnapshot() const {
  Snapshot snap;
  for (int i = 0; i < kNumOpKinds; ++i) {
    const AtomicOpStats& a = ops_[static_cast<size_t>(i)];
    OpStats& s = snap.ops[static_cast<size_t>(i)];
    s.forward_calls = a.forward_calls.load(std::memory_order_relaxed);
    s.forward_ns = a.forward_ns.load(std::memory_order_relaxed);
    s.forward_flops = a.forward_flops.load(std::memory_order_relaxed);
    s.forward_bytes = a.forward_bytes.load(std::memory_order_relaxed);
    s.backward_calls = a.backward_calls.load(std::memory_order_relaxed);
    s.backward_ns = a.backward_ns.load(std::memory_order_relaxed);
    s.backward_flops = a.backward_flops.load(std::memory_order_relaxed);
  }
  snap.live_bytes = live_bytes();
  snap.peak_live_bytes = peak_live_bytes();
  snap.alloc_count = alloc_count();
  snap.free_count = free_count();
  return snap;
}

uint64_t Profiler::Snapshot::TotalNs() const {
  uint64_t total = 0;
  for (const OpStats& s : ops) total += s.forward_ns + s.backward_ns;
  return total;
}

std::string Profiler::Snapshot::ToJson() const {
  std::ostringstream out;
  out << "{\"ops\": [";
  bool first = true;
  for (const auto& [kind, s] : BusyOps(*this)) {
    if (!first) out << ", ";
    first = false;
    out << StrFormat(
        "{\"op\": \"%s\", \"forward_calls\": %llu, \"forward_ns\": %llu, "
        "\"forward_flops\": %llu, \"forward_bytes\": %llu, "
        "\"backward_calls\": %llu, \"backward_ns\": %llu, "
        "\"backward_flops\": %llu}",
        std::string(OpKindName(kind)).c_str(),
        static_cast<unsigned long long>(s->forward_calls),
        static_cast<unsigned long long>(s->forward_ns),
        static_cast<unsigned long long>(s->forward_flops),
        static_cast<unsigned long long>(s->forward_bytes),
        static_cast<unsigned long long>(s->backward_calls),
        static_cast<unsigned long long>(s->backward_ns),
        static_cast<unsigned long long>(s->backward_flops));
  }
  out << StrFormat(
      "], \"memory\": {\"live_bytes\": %lld, \"peak_live_bytes\": %lld, "
      "\"alloc_count\": %llu, \"free_count\": %llu}}",
      static_cast<long long>(live_bytes),
      static_cast<long long>(peak_live_bytes),
      static_cast<unsigned long long>(alloc_count),
      static_cast<unsigned long long>(free_count));
  return out.str();
}

std::string Profiler::Snapshot::ToTable() const {
  std::ostringstream out;
  out << "per-op profile (CASCN_PROFILE):\n";
  out << StrFormat("  %-18s %10s %10s %10s %10s %10s %12s\n", "op", "calls",
                   "fwd_ms", "bwd_ms", "total_ms", "est_GFLOP", "out_MB");
  const auto busy = BusyOps(*this);
  if (busy.empty()) out << "  (no ops recorded)\n";
  for (const auto& [kind, s] : busy) {
    const double fwd_ms = static_cast<double>(s->forward_ns) / 1e6;
    const double bwd_ms = static_cast<double>(s->backward_ns) / 1e6;
    const double gflop =
        static_cast<double>(s->forward_flops + s->backward_flops) / 1e9;
    out << StrFormat("  %-18s %10llu %10.3f %10.3f %10.3f %10.3f %12.3f\n",
                     std::string(OpKindName(kind)).c_str(),
                     static_cast<unsigned long long>(s->forward_calls),
                     fwd_ms, bwd_ms, fwd_ms + bwd_ms, gflop,
                     static_cast<double>(s->forward_bytes) / 1e6);
  }
  out << StrFormat(
      "  memory: live=%lld bytes, peak=%lld bytes, allocs=%llu, frees=%llu\n",
      static_cast<long long>(live_bytes),
      static_cast<long long>(peak_live_bytes),
      static_cast<unsigned long long>(alloc_count),
      static_cast<unsigned long long>(free_count));
  return out.str();
}

void Profiler::ExportToRegistry(MetricsRegistry& registry) const {
  const Snapshot snap = TakeSnapshot();
  for (const auto& [kind, s] : BusyOps(snap)) {
    const std::string base = "profile_op_" + std::string(OpKindName(kind));
    registry.GetGauge(base + "_calls")
        .Set(static_cast<double>(s->forward_calls));
    registry.GetGauge(base + "_forward_ns")
        .Set(static_cast<double>(s->forward_ns));
    registry.GetGauge(base + "_backward_ns")
        .Set(static_cast<double>(s->backward_ns));
  }
  registry.GetGauge("profile_live_bytes")
      .Set(static_cast<double>(snap.live_bytes));
  registry.GetGauge("profile_peak_live_bytes")
      .Set(static_cast<double>(snap.peak_live_bytes));
  registry.GetGauge("profile_alloc_total")
      .Set(static_cast<double>(snap.alloc_count));
  registry.GetGauge("profile_free_total")
      .Set(static_cast<double>(snap.free_count));
}

}  // namespace cascn::obs

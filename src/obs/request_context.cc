#include "obs/request_context.h"

#include <atomic>
#include <utility>

namespace cascn::obs {

namespace {

// splitmix64 finalizer: bijective, so distinct counter values can never
// collide, and consecutive submissions land far apart in id space.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t NewTraceId() {
  static std::atomic<uint64_t> next{1};
  uint64_t id = Mix64(next.fetch_add(1, std::memory_order_relaxed));
  // Mix64 maps exactly one input to 0; skip it so 0 stays "no context".
  if (id == 0) id = Mix64(next.fetch_add(1, std::memory_order_relaxed));
  return id;
}

RequestContext RequestContext::New(std::string tenant, std::string session_id) {
  RequestContext ctx;
  ctx.trace_id = NewTraceId();
  ctx.tenant = std::move(tenant);
  ctx.session_id = std::move(session_id);
  return ctx;
}

void RequestContext::ResolveDeadline(double deadline_ms, double default_ms) {
  if (has_deadline) return;
  const double budget_ms =
      deadline_ms > 0.0 ? deadline_ms : (deadline_ms < 0.0 ? 0.0 : default_ms);
  if (budget_ms <= 0.0) return;
  has_deadline = true;
  deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(budget_ms * 1000.0));
}

}  // namespace cascn::obs

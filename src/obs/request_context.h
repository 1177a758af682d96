// RequestContext: the identity one request carries across threads, queues,
// and shards.
//
// Trace spans (obs/trace.h) answer "where did time go on this thread"; the
// request context answers "what happened to THIS request" as it crosses
// router -> admission -> shard queue -> worker -> session. A context is
// minted once at the edge (ShardRouter::Submit, or PredictionService::Submit
// for a caller that passes none) and then passed explicitly — never through
// thread-locals, which cannot survive the enqueue/dequeue thread hop — so
// every span, flight-recorder record, and SLI sample downstream can be
// stamped with the same 64-bit trace id.
//
// Once a request has entered the system, its context is the only holder of
// its session id and its deadline. The edge resolves the caller's deadline
// budget into an absolute point with ResolveDeadline, the one place the
// "> 0 explicit / 0 default / < 0 none" rule lives.
//
// Trace ids are never zero: zero means "no context" everywhere (spans
// without a request, flight records from untracked paths), so a context is
// cheap to test for and a forgotten propagation is visible in the output
// rather than silently aliased to a real request.

#ifndef CASCN_OBS_REQUEST_CONTEXT_H_
#define CASCN_OBS_REQUEST_CONTEXT_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace cascn::obs {

/// Fresh process-unique nonzero trace id: a splitmix64-mixed atomic
/// counter, so ids from concurrent submitters are well scattered (useful as
/// Chrome flow-event ids) yet allocation is one relaxed fetch_add.
uint64_t NewTraceId();

/// Identity and budget of one in-flight request. Copyable, explicitly
/// propagated; see file comment.
struct RequestContext {
  /// Nonzero for a real request; 0 = "no context".
  uint64_t trace_id = 0;
  /// Span id of the submitting side, for parent/child linkage in trace
  /// consumers (the Chrome export links hops by flow events keyed on
  /// trace_id; parent_span disambiguates retries that reuse a trace id).
  uint64_t parent_span = 0;
  /// Tenant the request was admitted under; empty for untenanted callers.
  std::string tenant;
  /// Session the request addresses.
  std::string session_id;
  /// Absolute deadline, set ONCE by ResolveDeadline at the edge that minted
  /// the context. Internal re-dispatch (a router retry) carries it forward
  /// — the caller's budget covers the whole request, not each attempt —
  /// and services honor it verbatim.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  bool valid() const { return trace_id != 0; }

  /// Mints a context with a fresh trace id.
  static RequestContext New(std::string tenant, std::string session_id);

  /// The deadline rule. A context that already has an absolute deadline
  /// keeps it (a retry relies on this). Otherwise the caller's budget
  /// `deadline_ms` decides: > 0 is that many milliseconds from now, 0 means
  /// `default_ms` (itself <= 0 for none), < 0 means no deadline. Real steady
  /// clock, read only when a deadline applies.
  void ResolveDeadline(double deadline_ms, double default_ms);
};

}  // namespace cascn::obs

#endif  // CASCN_OBS_REQUEST_CONTEXT_H_

// RequestContext: the identity one request carries across threads, queues,
// and shards.
//
// The PR 2 tracing layer answers "where did time go on this thread"; the
// request context answers "what happened to THIS request" as it crosses
// router -> admission -> shard queue -> worker -> session. A context is
// minted once at the edge (the shard router, or a bare PredictionService
// submit) and then passed explicitly — never through thread-locals, which
// cannot survive the enqueue/dequeue thread hop — so every span, flight-
// recorder record, and SLI sample downstream can be stamped with the same
// 64-bit trace id.
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
  /// Deadline budget the caller asked for, in the Submit* convention
  /// (> 0 explicit ms, 0 service default, < 0 none).
  double deadline_ms = 0.0;
  /// Absolute deadline, resolved ONCE at the edge that minted the context.
  /// Internal re-dispatch (retry, handoff retry) must carry this forward
  /// rather than re-arming `deadline_ms` from scratch — the caller's budget
  /// covers the whole request, not each attempt. When set, services honor
  /// it verbatim instead of re-deriving a deadline at enqueue.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  bool valid() const { return trace_id != 0; }

  /// Mints a context with a fresh trace id.
  static RequestContext New(std::string tenant, std::string session_id,
                            double deadline_ms = 0.0);
};

}  // namespace cascn::obs

#endif  // CASCN_OBS_REQUEST_CONTEXT_H_

#include "graph/cascade.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace cascn {

Result<Cascade> Cascade::Create(std::string id,
                                std::vector<AdoptionEvent> events) {
  if (events.empty())
    return Status::InvalidArgument("cascade must have at least the root");
  if (events[0].time != 0.0)
    return Status::InvalidArgument("root event must be at time 0");
  if (!events[0].parents.empty())
    return Status::InvalidArgument("root event must have no parents");
  for (size_t i = 0; i < events.size(); ++i) {
    const AdoptionEvent& e = events[i];
    if (e.node != static_cast<int>(i))
      return Status::InvalidArgument(
          StrFormat("event %zu has node id %d, expected %zu", i, e.node, i));
    if (i > 0) {
      if (!std::isfinite(e.time))
        return Status::InvalidArgument(
            StrFormat("event %zu has non-finite time", i));
      if (e.time < events[i - 1].time)
        return Status::InvalidArgument("event times must be non-decreasing");
      if (e.parents.empty())
        return Status::InvalidArgument(
            StrFormat("non-root event %zu has no parent", i));
      for (int p : e.parents) {
        if (p < 0 || p >= static_cast<int>(i))
          return Status::InvalidArgument(
              StrFormat("event %zu has invalid parent %d", i, p));
      }
    }
  }
  Cascade c;
  c.id_ = std::move(id);
  c.events_ = std::move(events);
  return c;
}

int Cascade::num_edges() const {
  int n = 0;
  for (const auto& e : events_) n += static_cast<int>(e.parents.size());
  return n;
}

int Cascade::SizeAtTime(double time) const {
  // Events are time-sorted: binary search for the first event after `time`.
  const auto it = std::upper_bound(
      events_.begin(), events_.end(), time,
      [](double t, const AdoptionEvent& e) { return t < e.time; });
  return static_cast<int>(it - events_.begin());
}

Cascade Cascade::Prefix(double max_time) const {
  const int n = std::max(1, SizeAtTime(max_time));
  return PrefixBySize(n);
}

Cascade Cascade::PrefixBySize(int count) const {
  const int n = std::clamp(count, 1, size());
  Cascade out;
  out.id_ = id_;
  out.events_.assign(events_.begin(), events_.begin() + n);
  return out;
}

CsrMatrix Cascade::AdjacencyMatrix(int n, int padded_size,
                                   bool root_self_loop) const {
  const int limit = std::min(n, size());
  CASCN_CHECK(padded_size >= limit);
  // The multiplicity of each edge in the leading m x m block, row-major:
  // a parent listed twice is one entry of 2.0. Parents precede their node
  // (Create), so every edge of the first `limit` nodes lies in the block.
  const int m = std::max(limit, root_self_loop ? 1 : 0);
  std::vector<double> counts(static_cast<size_t>(m) * m, 0.0);
  if (root_self_loop) counts[0] = 1.0;
  int edges = root_self_loop ? 1 : 0;
  for (int i = 1; i < limit; ++i) {
    for (const int p : events_[i].parents) {
      counts[static_cast<size_t>(p) * m + i] += 1.0;
      ++edges;
    }
  }
  CsrRowBuilder out(padded_size, padded_size, edges);
  for (int r = 0; r < m; ++r) {
    const double* const row = counts.data() + static_cast<size_t>(r) * m;
    for (int c = 0; c < m; ++c)
      if (row[c] != 0.0) out.Append(c, row[c]);
    out.EndRow();
  }
  return std::move(out).Build();
}

}  // namespace cascn

#include "graph/snapshot.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace cascn {

std::vector<int> SnapshotPrefixLengths(const Cascade& cascade,
                                       const SnapshotOptions& opts) {
  // Config parsing rejects a padded_size or max_sequence_length below 1.
  CASCN_CHECK(opts.padded_size >= 1 && opts.max_sequence_length >= 1);
  const int usable = std::min(cascade.size(), opts.padded_size);

  std::vector<int> prefix_lengths;
  if (usable <= opts.max_sequence_length) {
    for (int n = 1; n <= usable; ++n) prefix_lengths.push_back(n);
  } else {
    const int steps = opts.max_sequence_length;
    if (steps == 1) {
      prefix_lengths.push_back(usable);  // keep the full observed prefix
    } else {
      for (int s = 0; s < steps; ++s) {
        // Evenly spaced in [1, usable], inclusive of both ends.
        const int n =
            1 + static_cast<int>(std::llround(static_cast<double>(s) *
                                              (usable - 1) / (steps - 1)));
        prefix_lengths.push_back(n);
      }
    }
    prefix_lengths.erase(
        std::unique(prefix_lengths.begin(), prefix_lengths.end()),
        prefix_lengths.end());
  }
  return prefix_lengths;
}

std::vector<CascadeSnapshot> BuildSnapshotSequence(
    const Cascade& cascade, const SnapshotOptions& opts) {
  const std::vector<int> prefix_lengths =
      SnapshotPrefixLengths(cascade, opts);
  std::vector<CascadeSnapshot> out;
  out.reserve(prefix_lengths.size());
  for (size_t s = 0; s < prefix_lengths.size(); ++s) {
    const int n = prefix_lengths[s];
    CascadeSnapshot snap;
    snap.num_nodes = n;
    snap.time = cascade.event(n - 1).time;
    // Only the first snapshot (the lone initiator) carries the root
    // self-connection, mirroring Fig. 3. Parents precede their node
    // (Cascade::Create), so every edge lies in the n x n block.
    snap.adjacency = Tensor(opts.padded_size, opts.padded_size);
    if (s == 0) snap.adjacency.At(0, 0) = 1.0;
    for (int i = 1; i < n; ++i)
      for (const int p : cascade.event(i).parents)
        snap.adjacency.At(p, i) += 1.0;
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace cascn

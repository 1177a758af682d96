// The walk input of the walk-based models (DeepCas in Table III, CasCN-Path
// in Table IV): a cascade's random walks as per-step columns of user ids,
// sampled once per sample and cached.

#ifndef CASCN_CORE_WALK_USERS_H_
#define CASCN_CORE_WALK_USERS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "graph/random_walk.h"

namespace cascn {

/// Per-sample cache of walk user columns. Not thread-safe: its models run
/// serial forwards only.
class WalkUserCache {
 public:
  WalkUserCache(const WalkOptions& options, int user_universe, uint64_t seed)
      : options_(options), user_universe_(user_universe), seed_(seed) {}

  /// users[t][w] = the user at position t of walk w, modulo the user
  /// universe (the embedding vocabulary). Walks are seeded from the cascade
  /// id, so repeated epochs see the same sequences. Entries are keyed by
  /// SampleFingerprint, since a recycled address can hold another sample;
  /// the cache is cleared wholesale at 8192 entries, because a live cascade
  /// gets a new fingerprint per append.
  const std::vector<std::vector<int>>& Get(const CascadeSample& sample);

  void Clear() { cache_.clear(); }

 private:
  WalkOptions options_;
  int user_universe_;
  uint64_t seed_;
  std::unordered_map<uint64_t, std::vector<std::vector<int>>> cache_;
};

}  // namespace cascn

#endif  // CASCN_CORE_WALK_USERS_H_

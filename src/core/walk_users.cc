#include "core/walk_users.h"

#include <functional>
#include <string>

namespace cascn {

const std::vector<std::vector<int>>& WalkUserCache::Get(
    const CascadeSample& sample) {
  const uint64_t key = SampleFingerprint(sample);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  if (cache_.size() >= 8192) cache_.clear();
  Rng rng(std::hash<std::string>{}(sample.observed.id()) ^ seed_);
  const std::vector<std::vector<int>> walks =
      SampleCascadeWalks(sample.observed, options_, rng);
  std::vector<std::vector<int>> users(options_.walk_length,
                                      std::vector<int>(walks.size(), 0));
  for (size_t w = 0; w < walks.size(); ++w)
    for (int t = 0; t < options_.walk_length; ++t)
      users[t][w] = sample.observed.event(walks[w][t]).user % user_universe_;
  return cache_.emplace(key, std::move(users)).first->second;
}

}  // namespace cascn

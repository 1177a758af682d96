#include "cluster/consistent_hash.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace cascn::cluster {

namespace {

/// splitmix64 finalizer: cheap, well-mixed, and stable across platforms —
/// the same hash the fault registry uses for its firing schedule.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t HashRing::HashKey(std::string_view key) {
  // FNV-1a over the bytes, then splitmix64 to spread the low entropy of
  // short keys ("s1", "s2", ...) across all 64 bits.
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return Mix64(h);
}

void HashRing::SetShards(const std::vector<int>& shard_ids) {
  shard_ids_ = shard_ids;
  std::sort(shard_ids_.begin(), shard_ids_.end());
  shard_ids_.erase(std::unique(shard_ids_.begin(), shard_ids_.end()),
                   shard_ids_.end());
  points_.clear();
  points_.reserve(shard_ids_.size() *
                  static_cast<size_t>(kVnodesPerShard));
  for (int shard : shard_ids_) {
    for (int v = 0; v < kVnodesPerShard; ++v) {
      // Mixing the pre-mixed shard hash with the vnode index decorrelates
      // the point sets of adjacent shard ids.
      const uint64_t point =
          Mix64(Mix64(static_cast<uint64_t>(shard) + 1) +
                0x51a2b3c4d5e6f708ull * static_cast<uint64_t>(v + 1));
      points_.push_back(Point{point, shard});
    }
  }
  std::sort(points_.begin(), points_.end());
}

size_t HashRing::FirstPointAtOrAfter(uint64_t hash) const {
  const auto it = std::lower_bound(points_.begin(), points_.end(),
                                   Point{hash, /*shard=*/0});
  return it == points_.end() ? 0 : static_cast<size_t>(it - points_.begin());
}

int HashRing::OwnerOf(std::string_view key) const {
  CASCN_CHECK(!points_.empty()) << "ring has no shards";
  return points_[FirstPointAtOrAfter(HashKey(key))].shard;
}

int HashRing::PickShard(
    std::string_view key,
    const std::function<uint64_t(int)>& load_of) const {
  CASCN_CHECK(!points_.empty()) << "ring has no shards";
  uint64_t total = 0;
  for (int shard : shard_ids_) total += load_of(shard);
  const uint64_t bound = static_cast<uint64_t>(std::ceil(
      kLoadFactor * static_cast<double>(total + 1) /
      static_cast<double>(shard_ids_.size())));

  // Walk the ring from the owner, considering each distinct shard once.
  const size_t start = FirstPointAtOrAfter(HashKey(key));
  size_t seen = 0;
  std::vector<bool> visited(shard_ids_.size(), false);
  for (size_t step = 0;
       step < points_.size() && seen < shard_ids_.size(); ++step) {
    const int shard = points_[(start + step) % points_.size()].shard;
    const size_t index = static_cast<size_t>(
        std::lower_bound(shard_ids_.begin(), shard_ids_.end(), shard) -
        shard_ids_.begin());
    if (visited[index]) continue;
    visited[index] = true;
    ++seen;
    if (load_of(shard) < bound) return shard;
  }
  // Every shard at the bound (loads raced ahead of the total we computed):
  // fall back to the least loaded, ties to the smallest id.
  int best = shard_ids_.front();
  uint64_t best_load = load_of(best);
  for (int shard : shard_ids_) {
    const uint64_t load = load_of(shard);
    if (load < best_load) {
      best = shard;
      best_load = load;
    }
  }
  return best;
}

}  // namespace cascn::cluster

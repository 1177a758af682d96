// Consistent hashing of session keys onto shards, with the bounded-load
// variant for placement.
//
// The ring holds kVnodesPerShard pseudo-random points per shard (a
// splitmix64 hash of (shard id, vnode index)); a key belongs to the shard
// owning the first ring point at or after the key's hash. Two properties
// make this the right router for session-keyed serving:
//
//   - Balance: with enough virtual nodes, every shard owns ~1/N of the key
//     space (the consistent-hash property test bounds the deviation).
//   - Minimal disruption: adding or removing one shard remaps only the keys
//     that ring-adjoin its points — about 1/N of them — and every remapped
//     key moves to/from the changed shard. Keys on unchanged shards never
//     move, which is what makes a live rebalance cheap.
//
// Bounded load (PickShard): pure ring ownership can transiently overload
// one shard (hot key ranges). Following "Consistent Hashing with Bounded
// Loads" (Mirrokni et al.), placement walks the ring from the owner and
// skips shards already at ceil(kLoadFactor * (total + 1) / N) of the
// current load, so no shard ever exceeds kLoadFactor times the mean. The
// walk is deterministic given the load vector; the caller (ShardRouter)
// pins the session to the picked shard so later requests need no load
// information.

#ifndef CASCN_CLUSTER_CONSISTENT_HASH_H_
#define CASCN_CLUSTER_CONSISTENT_HASH_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace cascn::cluster {

/// Hash ring over a set of integer shard ids. Not thread-safe; the owner
/// (ShardRouter) guards it with its routing lock.
class HashRing {
 public:
  /// Virtual nodes per shard; more vnodes = tighter balance, larger ring.
  static constexpr int kVnodesPerShard = 256;
  /// Bounded-load factor c (> 1): no shard's load may exceed
  /// ceil(c * (total_load + 1) / num_shards).
  static constexpr double kLoadFactor = 1.25;

  /// Rebuilds the ring over `shard_ids` (duplicates ignored).
  void SetShards(const std::vector<int>& shard_ids);

  const std::vector<int>& shard_ids() const { return shard_ids_; }
  int num_shards() const { return static_cast<int>(shard_ids_.size()); }
  bool empty() const { return points_.empty(); }

  /// Pure ring owner of `key`. Pre: !empty().
  int OwnerOf(std::string_view key) const;

  /// Bounded-load placement: the first shard at or after `key`'s hash whose
  /// current load (via `load_of(shard_id)`) is below the bound; falls back
  /// to the least-loaded shard when every shard is at the bound (possible
  /// only transiently, when loads move under the caller). Pre: !empty().
  int PickShard(std::string_view key,
                const std::function<uint64_t(int)>& load_of) const;

  /// Stable 64-bit hash of a key (exposed for tests).
  static uint64_t HashKey(std::string_view key);

 private:
  struct Point {
    uint64_t hash;
    int shard;
    bool operator<(const Point& other) const { return hash < other.hash; }
  };

  /// Index into points_ of the first point at or after `hash` (wrapping).
  size_t FirstPointAtOrAfter(uint64_t hash) const;

  std::vector<int> shard_ids_;   // sorted, unique
  std::vector<Point> points_;    // sorted by hash
};

}  // namespace cascn::cluster

#endif  // CASCN_CLUSTER_CONSISTENT_HASH_H_

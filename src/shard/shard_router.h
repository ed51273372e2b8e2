// Event-id hash routing for a sharded cluster of burst engines.
//
// The paper's dyadic decomposition makes every query surface
// partition-mergeable as long as each event's COMPLETE history lives
// in exactly one partition: POINT/FREQ/BTIME answers route to the
// owning shard unchanged, and BURSTY EVENT candidate sets from
// disjoint id subsets union without double counting (the θ-pruning
// rule b_p² − 2·b_l·b_r < θ² evaluates per shard, so the pushdown
// loses nothing). Hash partitioning by event id gives exactly that
// invariant — hence this router, the one piece of policy every other
// shard-layer component (cluster facade, manifest, layout rule)
// must agree on.
//
// The placement is a pure function of (id, seed, shard count): no
// directory service, no rebalancing state. Changing either parameter
// re-homes ids, which is why both are persisted in the cluster
// manifest and verified on every open (see shard/cluster_manifest.h).

#ifndef BURSTHIST_SHARD_SHARD_ROUTER_H_
#define BURSTHIST_SHARD_SHARD_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "hash/hash.h"
#include "stream/types.h"

namespace bursthist {
namespace shard {

/// Default seed folded into the router hash. Distinct from any sketch
/// seed so shard placement never correlates with Count-Min row
/// placement (correlated placement would concentrate the heavy
/// colliders of one sketch row in one shard).
inline constexpr uint64_t kDefaultShardHashSeed = 0x5ba9d00fcafe17ull;

/// Maps event ids to shard indices: Mix64(id ^ seed) mod shards.
/// Mix64 is a full-avalanche finalizer, so consecutive ids spread
/// uniformly even under the modulo.
class ShardRouter {
 public:
  ShardRouter(size_t shards, uint64_t seed = kDefaultShardHashSeed)
      : shards_(shards == 0 ? 1 : shards), seed_(seed) {}

  size_t ShardOf(EventId e) const {
    if (shards_ == 1) return 0;
    return static_cast<size_t>(Mix64(static_cast<uint64_t>(e) ^ seed_) %
                               shards_);
  }

  size_t shards() const { return shards_; }
  uint64_t seed() const { return seed_; }

 private:
  size_t shards_;
  uint64_t seed_;
};

/// Subdirectory name of one shard inside a cluster directory
/// ("shard-000", "shard-001", ...).
inline std::string ShardDirName(size_t shard) {
  char name[32];  // "shard-" + up to 20 digits + NUL
  std::snprintf(name, sizeof(name), "shard-%03llu",
                static_cast<unsigned long long>(shard));
  return name;
}

/// One row of a SHARDSTATS reply / ShardStats() call: the per-shard
/// numbers the label-less process metrics registry cannot carry.
/// `lag`/`applied` are only meaningful on a replica (has_lag set).
struct ShardStat {
  size_t shard = 0;
  Count total = 0;
  Count buffered = 0;
  Timestamp watermark = 0;
  uint64_t generation = 0;
  uint64_t wal_seq = 0;
  uint64_t wal_offset = 0;
  bool has_lag = false;
  Timestamp lag = 0;
  uint64_t applied = 0;
};

}  // namespace shard
}  // namespace bursthist

#endif  // BURSTHIST_SHARD_SHARD_ROUTER_H_

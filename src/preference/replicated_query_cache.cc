#include "preference/replicated_query_cache.h"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

namespace ctxpref {

ReplicatedQueryCache::ReplicatedQueryCache(EnvironmentPtr env, Ordering order)
    : ReplicatedQueryCache(std::move(env), order, Options()) {}

ReplicatedQueryCache::ReplicatedQueryCache(EnvironmentPtr env, Ordering order,
                                           Options options) {
  const size_t n = std::max<size_t>(options.num_replicas, 1);
  replicas_.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    replicas_.push_back(std::make_unique<ContextQueryTree>(
        env, order, options.capacity_per_replica, options.num_shards));
    // Skewed entries stay in place on touch: they are the degradation
    // ladder's stale rung, and the next `Put` for the same slot (or LRU
    // eviction) reclaims them.
    replicas_.back()->SetRetainStale(true);
  }
}

size_t ReplicatedQueryCache::ReplicaForThisThread() const {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
         replicas_.size();
}

CacheStats ReplicatedQueryCache::Stats() const {
  CacheStats total;
  for (const std::unique_ptr<ContextQueryTree>& replica : replicas_) {
    const CacheStats s = replica->Stats();
    total.lookups += s.lookups;
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.invalidations += s.invalidations;
    total.size += s.size;
  }
  return total;
}

}  // namespace ctxpref

#ifndef CTXPREF_PREFERENCE_REPLICATED_QUERY_CACHE_H_
#define CTXPREF_PREFERENCE_REPLICATED_QUERY_CACHE_H_

#include <memory>
#include <vector>

#include "preference/query_cache.h"

namespace ctxpref {

/// N private retain-stale `ContextQueryTree` replicas, so serving
/// threads read their own tree with no cross-thread cache contention
/// (docs/coherence.md).
///
/// Replicas need no coherence protocol. Every entry is keyed by
/// `(user, state, serving version)`, and the serving version is
/// store-wide monotone and never reused, so an exact-version `Lookup`
/// can only hit an entry computed from the pinned snapshot. A replica
/// that has never heard of a publish simply misses. Memory is reclaimed
/// by the one rule every query cache follows:
///
///   - each `(user, state)` has one slot, and `Put` overwrites it in
///     place, whatever version it held;
///   - beyond `capacity_per_replica`, the least recently used slot is
///     evicted;
///   - exact version keys decide fresh hits, and `LookupAtOrBefore`'s
///     window decides stale hits (the serving ladder bounds that window
///     below by the user's creation version, so a removed user's
///     entries never answer for a re-created one).
///
/// Callers serve through `replica(r)` exactly like a single shared
/// cache: `storage::ServeQuery(snapshot, ..., &replicas.replica(r))`
/// or `storage::ServeQueryResilient(..., &replicas.replica(r), ...)`.
class ReplicatedQueryCache {
 public:
  struct Options {
    size_t num_replicas = 2;
    /// Per-replica `ContextQueryTree` capacity (0 = unbounded) and
    /// shard count. Replicas default to one shard: the tree is
    /// per-serving-thread already, so striping buys nothing.
    size_t capacity_per_replica = 0;
    size_t num_shards = 1;
  };

  ReplicatedQueryCache(EnvironmentPtr env, Ordering order, Options options);
  /// Default options (delegates; a defaulted `Options` argument would
  /// need the nested class's member initializers before the enclosing
  /// class is complete, which GCC rejects).
  ReplicatedQueryCache(EnvironmentPtr env, Ordering order);

  ReplicatedQueryCache(const ReplicatedQueryCache&) = delete;
  ReplicatedQueryCache& operator=(const ReplicatedQueryCache&) = delete;

  size_t num_replicas() const { return replicas_.size(); }

  /// Replica `r`'s private tree (retain-stale, internally synchronized).
  ContextQueryTree& replica(size_t r) { return *replicas_[r]; }
  const ContextQueryTree& replica(size_t r) const { return *replicas_[r]; }

  /// Stable thread -> replica mapping for callers that don't manage
  /// replica indices themselves.
  size_t ReplicaForThisThread() const;

  /// Aggregated stats over all replica trees.
  CacheStats Stats() const;

 private:
  std::vector<std::unique_ptr<ContextQueryTree>> replicas_;
};

}  // namespace ctxpref

#endif  // CTXPREF_PREFERENCE_REPLICATED_QUERY_CACHE_H_

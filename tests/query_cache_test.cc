#include "preference/query_cache.h"

#include <gtest/gtest.h>

#include "context/parser.h"
#include "tests/test_util.h"
#include "workload/poi_dataset.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::Pref;
using ::ctxpref::testing::State;

class QueryCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(30, 5);
    ASSERT_OK(poi.status());
    poi_ = std::make_unique<workload::PoiDatabase>(std::move(*poi));
    env_ = poi_->env;
  }

  /// `num_shards` = 1 keeps a single LRU domain so eviction order is
  /// exact; multi-shard behavior is covered by the dedicated tests.
  ContextQueryTree MakeCache(size_t capacity = 0, size_t num_shards = 1) {
    return ContextQueryTree(env_, Ordering::Identity(env_->size()), capacity,
                            num_shards);
  }

  std::unique_ptr<workload::PoiDatabase> poi_;
  EnvironmentPtr env_;
};

TEST_F(QueryCacheTest, PutThenLookupHits) {
  ContextQueryTree cache = MakeCache();
  ContextState s = State(*env_, {"Plaka", "warm", "friends"});
  cache.Put(s, 1, {{3, 0.9}, {5, 0.7}});
  std::shared_ptr<const ContextQueryTree::Entry> hit = cache.Lookup(s, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->tuples.size(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(QueryCacheTest, MissOnAbsentState) {
  ContextQueryTree cache = MakeCache();
  EXPECT_EQ(cache.Lookup(State(*env_, {"Plaka", "warm", "friends"}), 1),
            nullptr);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST_F(QueryCacheTest, StaleVersionInvalidatesOnTouch) {
  ContextQueryTree cache = MakeCache();
  ContextState s = State(*env_, {"Plaka", "warm", "friends"});
  cache.Put(s, 1, {{3, 0.9}});
  EXPECT_EQ(cache.Lookup(s, 2), nullptr);  // Profile moved to version 2.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
  // A stale drop is an invalidation, not just a miss.
  EXPECT_EQ(cache.invalidations(), 1u);
  // Re-populate at the new version.
  cache.Put(s, 2, {{3, 0.9}});
  EXPECT_NE(cache.Lookup(s, 2), nullptr);
}

TEST_F(QueryCacheTest, StatsSnapshotAggregatesAllCounters) {
  ContextQueryTree cache = MakeCache(/*capacity=*/1);
  ContextState a = State(*env_, {"Plaka", "warm", "friends"});
  ContextState b = State(*env_, {"Kifisia", "hot", "family"});
  cache.Put(a, 1, {{1, 0.5}});
  EXPECT_NE(cache.Lookup(a, 1), nullptr);  // hit
  EXPECT_EQ(cache.Lookup(b, 1), nullptr);  // miss
  cache.Put(b, 1, {{2, 0.5}});             // evicts a
  cache.Put(a, 2, {{1, 0.5}});             // evicts b
  EXPECT_EQ(cache.Lookup(a, 3), nullptr);  // stale drop: miss + invalidation

  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.size, 0u);
  // The legacy accessors are views of the same snapshot.
  EXPECT_EQ(cache.hits(), stats.hits);
  EXPECT_EQ(cache.misses(), stats.misses);
  EXPECT_EQ(cache.evictions(), stats.evictions);
  EXPECT_EQ(cache.invalidations(), stats.invalidations);
  EXPECT_EQ(cache.size(), stats.size);
}

TEST_F(QueryCacheTest, PutOverwritesInPlace) {
  ContextQueryTree cache = MakeCache();
  ContextState s = State(*env_, {"Plaka", "warm", "friends"});
  cache.Put(s, 1, {{3, 0.9}});
  cache.Put(s, 1, {{4, 0.8}});
  EXPECT_EQ(cache.size(), 1u);
  std::shared_ptr<const ContextQueryTree::Entry> hit = cache.Lookup(s, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->tuples[0].row_id, 4u);
}

TEST_F(QueryCacheTest, LookupSnapshotSurvivesOverwrite) {
  ContextQueryTree cache = MakeCache();
  ContextState s = State(*env_, {"Plaka", "warm", "friends"});
  cache.Put(s, 1, {{3, 0.9}});
  std::shared_ptr<const ContextQueryTree::Entry> snapshot = cache.Lookup(s, 1);
  ASSERT_NE(snapshot, nullptr);
  cache.Put(s, 1, {{4, 0.8}});
  cache.InvalidateAll();
  // The reader's snapshot is unaffected by the concurrent-style churn.
  EXPECT_EQ(snapshot->tuples[0].row_id, 3u);
}

TEST_F(QueryCacheTest, LruEvictionBeyondCapacity) {
  ContextQueryTree cache = MakeCache(/*capacity=*/2, /*num_shards=*/1);
  ContextState a = State(*env_, {"Plaka", "warm", "friends"});
  ContextState b = State(*env_, {"Kifisia", "hot", "family"});
  ContextState c = State(*env_, {"Perama", "cold", "alone"});
  cache.Put(a, 1, {{1, 0.5}});
  cache.Put(b, 1, {{2, 0.5}});
  // Touch `a` so `b` is the LRU victim.
  EXPECT_NE(cache.Lookup(a, 1), nullptr);
  cache.Put(c, 1, {{3, 0.5}});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.Lookup(a, 1), nullptr);
  EXPECT_EQ(cache.Lookup(b, 1), nullptr);  // Evicted.
  EXPECT_NE(cache.Lookup(c, 1), nullptr);
}

TEST_F(QueryCacheTest, ShardedCacheKeepsStatesSeparate) {
  ContextQueryTree cache = MakeCache(/*capacity=*/0, /*num_shards=*/8);
  EXPECT_EQ(cache.num_shards(), 8u);
  std::vector<ContextState> states = {
      State(*env_, {"Plaka", "warm", "friends"}),
      State(*env_, {"Kifisia", "hot", "family"}),
      State(*env_, {"Perama", "cold", "alone"}),
      State(*env_, {"Plaka", "hot", "alone"}),
      State(*env_, {"Kifisia", "cold", "friends"}),
  };
  for (size_t i = 0; i < states.size(); ++i) {
    cache.Put(states[i], 1, {{static_cast<db::RowId>(i), 0.5}});
  }
  EXPECT_EQ(cache.size(), states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    std::shared_ptr<const ContextQueryTree::Entry> hit =
        cache.Lookup(states[i], 1);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->tuples[0].row_id, i);
  }
  cache.InvalidateAll();
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(QueryCacheTest, ShardCountClampedToSmallCapacity) {
  // With capacity < num_shards, an unclamped split would give every
  // shard a budget of 1 and let the global bound balloon to
  // num_shards; the constructor clamps the shard count instead.
  ContextQueryTree cache = MakeCache(/*capacity=*/2, /*num_shards=*/8);
  EXPECT_EQ(cache.num_shards(), 2u);
  std::vector<ContextState> states = {
      State(*env_, {"Plaka", "warm", "friends"}),
      State(*env_, {"Kifisia", "hot", "family"}),
      State(*env_, {"Perama", "cold", "alone"}),
      State(*env_, {"Plaka", "hot", "alone"}),
      State(*env_, {"Kifisia", "cold", "friends"}),
  };
  for (size_t i = 0; i < states.size(); ++i) {
    cache.Put(states[i], 1, {{static_cast<db::RowId>(i), 0.5}});
  }
  // capacity 2 over 2 clamped shards = 1 per shard, no rounding
  // overshoot: the global bound is exactly the requested capacity.
  EXPECT_LE(cache.size(), 2u);
}

TEST_F(QueryCacheTest, InvalidateAllDropsEverything) {
  ContextQueryTree cache = MakeCache();
  cache.Put(State(*env_, {"Plaka", "warm", "friends"}), 1, {{1, 0.5}});
  cache.Put(State(*env_, {"Kifisia", "hot", "family"}), 1, {{2, 0.5}});
  cache.InvalidateAll();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(State(*env_, {"Plaka", "warm", "friends"}), 1),
            nullptr);
}

TEST_F(QueryCacheTest, UsersAreIsolatedNamespaces) {
  ContextQueryTree cache = MakeCache();
  ContextState s = State(*env_, {"Plaka", "warm", "friends"});
  cache.Put("alice", s, 1, {{1, 0.9}});
  cache.Put("bob", s, 1, {{2, 0.4}});
  // Same state, same version — but each user sees only their entry.
  std::shared_ptr<const ContextQueryTree::Entry> alice =
      cache.Lookup("alice", s, 1);
  std::shared_ptr<const ContextQueryTree::Entry> bob =
      cache.Lookup("bob", s, 1);
  ASSERT_NE(alice, nullptr);
  ASSERT_NE(bob, nullptr);
  EXPECT_EQ(alice->tuples[0].row_id, 1);
  EXPECT_EQ(bob->tuples[0].row_id, 2);
  // The anonymous (single-user sugar) namespace is a third user.
  EXPECT_EQ(cache.Lookup(s, 1), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(QueryCacheTest, InvalidateUserDropsOnlyThatUser) {
  ContextQueryTree cache = MakeCache(/*capacity=*/0, /*num_shards=*/4);
  ContextState a = State(*env_, {"Plaka", "warm", "friends"});
  ContextState b = State(*env_, {"Kifisia", "hot", "family"});
  cache.Put("alice", a, 1, {{1, 0.5}});
  cache.Put("alice", b, 1, {{2, 0.5}});
  cache.Put("bob", a, 1, {{3, 0.5}});
  ASSERT_EQ(cache.size(), 3u);

  EXPECT_EQ(cache.InvalidateUser("alice"), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup("alice", a, 1), nullptr);
  EXPECT_EQ(cache.Lookup("alice", b, 1), nullptr);
  EXPECT_NE(cache.Lookup("bob", a, 1), nullptr);
  // Eager drops count as invalidations.
  EXPECT_GE(cache.invalidations(), 2u);
  // Invalidating an unknown user is a no-op.
  EXPECT_EQ(cache.InvalidateUser("carol"), 0u);
}

TEST_F(QueryCacheTest, EvictionAccountsPerUserEntries) {
  ContextQueryTree cache = MakeCache(/*capacity=*/2);
  ContextState s = State(*env_, {"Plaka", "warm", "friends"});
  cache.Put("alice", s, 1, {{1, 0.5}});
  cache.Put("bob", s, 1, {{2, 0.5}});
  cache.Put("carol", s, 1, {{3, 0.5}});  // Evicts alice (LRU).
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup("alice", s, 1), nullptr);
  EXPECT_NE(cache.Lookup("bob", s, 1), nullptr);
  EXPECT_NE(cache.Lookup("carol", s, 1), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST_F(QueryCacheTest, VersionTagsAreScopedPerUser) {
  ContextQueryTree cache = MakeCache();
  ContextState s = State(*env_, {"Plaka", "warm", "friends"});
  cache.Put("alice", s, 7, {{1, 0.5}});
  cache.Put("bob", s, 9, {{2, 0.5}});
  // Bob's newer version does not disturb alice's tag, and a stale
  // lookup drops only the touched user's entry.
  EXPECT_NE(cache.Lookup("alice", s, 7), nullptr);
  EXPECT_EQ(cache.Lookup("alice", s, 8), nullptr);  // stale drop
  EXPECT_NE(cache.Lookup("bob", s, 9), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(QueryCacheTest, LookupCountsCellAccesses) {
  ContextQueryTree cache = MakeCache();
  ContextState s = State(*env_, {"Plaka", "warm", "friends"});
  cache.Put(s, 1, {{1, 0.5}});
  AccessCounter counter;
  cache.Lookup(s, 1, &counter);
  EXPECT_EQ(counter.cells(), 3u);  // One cell per level, single-path trie.
}

TEST_F(QueryCacheTest, CachedRankCSMatchesUncachedAndHits) {
  Profile profile(env_);
  ASSERT_OK(profile.Insert(
      Pref(*env_, "temperature = hot", "type", "park", 0.9)));
  ASSERT_OK(profile.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.7)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver flat_resolver(&flat);
  ContextQueryTree cache = MakeCache(16);

  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
      *env_,
      "location = Plaka and temperature = hot and "
      "accompanying_people = friends");
  ASSERT_OK(ecod.status());
  ContextualQuery q;
  q.context = *ecod;

  StatusOr<QueryResult> uncached = RankCS(poi_->relation, q, resolver);
  ASSERT_OK(uncached.status());

  StatusOr<QueryResult> first = CachedRankCS(
      poi_->relation, q, flat_resolver, "", profile.version(), cache);
  ASSERT_OK(first.status());
  EXPECT_EQ(first->tuples, uncached->tuples);
  EXPECT_EQ(cache.hits(), 0u);

  StatusOr<QueryResult> second = CachedRankCS(
      poi_->relation, q, flat_resolver, "", profile.version(), cache);
  ASSERT_OK(second.status());
  EXPECT_EQ(second->tuples, uncached->tuples);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(QueryCacheTest, CacheHitProducesIdenticalTrace) {
  Profile profile(env_);
  ASSERT_OK(profile.Insert(
      Pref(*env_, "temperature = hot", "type", "park", 0.9)));
  ASSERT_OK(profile.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.7)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver flat_resolver(&flat);
  ContextQueryTree cache = MakeCache(16);

  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
      *env_, "temperature = hot and accompanying_people = friends");
  ASSERT_OK(ecod.status());
  ContextualQuery q;
  q.context = *ecod;

  StatusOr<QueryResult> miss = CachedRankCS(
      poi_->relation, q, flat_resolver, "", profile.version(), cache);
  ASSERT_OK(miss.status());
  StatusOr<QueryResult> hit = CachedRankCS(
      poi_->relation, q, flat_resolver, "", profile.version(), cache);
  ASSERT_OK(hit.status());
  EXPECT_GE(cache.hits(), 1u);

  // Resolution provenance must not be lost on the cached path.
  ASSERT_EQ(hit->traces.size(), miss->traces.size());
  for (size_t i = 0; i < miss->traces.size(); ++i) {
    EXPECT_EQ(hit->traces[i].query_state, miss->traces[i].query_state);
    ASSERT_EQ(hit->traces[i].candidates.size(),
              miss->traces[i].candidates.size());
    EXPECT_FALSE(miss->traces[i].candidates.empty())
        << "trace " << i << " resolved no candidates; test is vacuous";
    for (size_t c = 0; c < miss->traces[i].candidates.size(); ++c) {
      const CandidatePath& m = miss->traces[i].candidates[c];
      const CandidatePath& h = hit->traces[i].candidates[c];
      EXPECT_EQ(h.state, m.state);
      EXPECT_EQ(h.distance, m.distance);
      ASSERT_EQ(h.entries.size(), m.entries.size());
      for (size_t e = 0; e < m.entries.size(); ++e) {
        EXPECT_EQ(h.entries[e].clause, m.entries[e].clause);
        EXPECT_EQ(h.entries[e].score, m.entries[e].score);
      }
    }
  }
}

TEST_F(QueryCacheTest, CachedRankCSRespectsProfileVersion) {
  Profile profile(env_);
  ASSERT_OK(profile.Insert(
      Pref(*env_, "temperature = hot", "type", "park", 0.9)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver flat_resolver(&flat);
  ContextQueryTree cache = MakeCache(16);

  StatusOr<ExtendedDescriptor> ecod =
      ParseExtendedDescriptor(*env_, "temperature = hot");
  ContextualQuery q;
  q.context = *ecod;

  ASSERT_OK(CachedRankCS(poi_->relation, q, flat_resolver, "",
                         profile.version(), cache)
                .status());
  // Mutate the profile: the cached state is now stale.
  ASSERT_OK(profile.Insert(
      Pref(*env_, "temperature = hot", "type", "museum", 0.8)));
  StatusOr<ProfileTree> tree2 = ProfileTree::Build(profile);
  ASSERT_OK(tree2.status());
  const FlatProfileTree flat2 = FlatProfileTree::Build(*tree2);
  FlatResolver flat_resolver2(&flat2);
  StatusOr<QueryResult> fresh = CachedRankCS(
      poi_->relation, q, flat_resolver2, "", profile.version(), cache);
  ASSERT_OK(fresh.status());
  // The new museum preference must show up (stale entry not served).
  const size_t type_col = *poi_->relation.schema().IndexOf("type");
  bool saw_museum = false;
  for (const db::ScoredTuple& t : fresh->tuples) {
    saw_museum |=
        poi_->relation.row(t.row_id)[type_col].AsString() == "museum";
  }
  EXPECT_TRUE(saw_museum);
  EXPECT_GE(cache.invalidations(), 1u);
}

TEST_F(QueryCacheTest, CachedRankCSAppliesSelectionsPostCache) {
  Profile profile(env_);
  ASSERT_OK(profile.Insert(Pref(*env_, "*", "type", "park", 0.9)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver flat_resolver(&flat);
  ContextQueryTree cache = MakeCache(16);

  StatusOr<ExtendedDescriptor> ecod =
      ParseExtendedDescriptor(*env_, "temperature = hot");
  ContextualQuery unrestricted;
  unrestricted.context = *ecod;
  ASSERT_OK(CachedRankCS(poi_->relation, unrestricted, flat_resolver, "",
                         profile.version(), cache)
                .status());

  // Same context state, now with a selection: served from cache but
  // filtered.
  ContextualQuery restricted = unrestricted;
  StatusOr<db::Predicate> sel = db::Predicate::Create(
      poi_->relation.schema(), "location", db::CompareOp::kEq,
      db::Value("Plaka"));
  ASSERT_OK(sel.status());
  restricted.selections.push_back(*sel);
  StatusOr<QueryResult> result =
      CachedRankCS(poi_->relation, restricted, flat_resolver, "",
                   profile.version(), cache);
  ASSERT_OK(result.status());
  EXPECT_GE(cache.hits(), 1u);
  const size_t loc_col = *poi_->relation.schema().IndexOf("location");
  for (const db::ScoredTuple& t : result->tuples) {
    EXPECT_EQ(poi_->relation.row(t.row_id)[loc_col].AsString(), "Plaka");
  }
}

TEST_F(QueryCacheTest, CachedRankCSRejectsNonAssociativePolicies) {
  Profile profile(env_);
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver flat_resolver(&flat);
  ContextQueryTree cache = MakeCache();
  ContextualQuery q;
  QueryOptions options;
  options.combine = db::CombinePolicy::kAvg;
  EXPECT_TRUE(CachedRankCS(poi_->relation, q, flat_resolver, "",
                           profile.version(), cache, options)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace ctxpref

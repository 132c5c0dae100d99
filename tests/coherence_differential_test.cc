// Differential + chaos battery for replicated query caches
// (docs/coherence.md): retain-stale replicas with no invalidation hook
// must serve answers byte-identical to a single shared cache AND to an
// uncached serve at the same serving version —
//  (1) across >= 12 interleaved PublishProfile / ReloadUser swaps,
//      both DistanceKinds, with every hit asserted identical to the
//      miss that populated it;
//  (2) under seeded chaos: writer churn (publish / update / remove /
//      re-create) interleaved with straggling readers that serve from
//      long-pinned snapshots and with degraded serves down the stale
//      rung, every answer checked against the uncached oracle of the
//      snapshot it claims to reflect;
//  (3) directed: the one reclamation rule bounds each replica's memory
//      by the (user, state) slots it served and by its capacity.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "context/descriptor.h"
#include "db/relation.h"
#include "db/schema.h"
#include "preference/query_cache.h"
#include "preference/replicated_query_cache.h"
#include "storage/profile_store.h"
#include "storage/serving.h"
#include "tests/test_util.h"
#include "util/deadline.h"
#include "util/random.h"

namespace ctxpref {
namespace {

namespace fs = std::filesystem;

/// The serving-differential two-parameter world (see
/// serving_differential_test.cc).
EnvironmentPtr TinyEnv() {
  HierarchyBuilder pb("place");
  pb.AddDetailedLevel("Spot", {"a", "b", "c"});
  pb.AddLevel("Zone", {{"X", {"a", "b"}}, {"Y", {"c"}}});
  StatusOr<HierarchyPtr> place = pb.Build();
  EXPECT_TRUE(place.ok());
  StatusOr<HierarchyPtr> mood =
      MakeFlatHierarchy("mood", "Mood", {"happy", "sad"});
  EXPECT_TRUE(mood.ok());
  std::vector<ContextParameter> params;
  params.emplace_back("place", *place);
  params.emplace_back("mood", *mood);
  StatusOr<EnvironmentPtr> env = ContextEnvironment::Create(std::move(params));
  EXPECT_TRUE(env.ok());
  return *env;
}

std::vector<ContextState> AllExtendedStates(const ContextEnvironment& env) {
  std::vector<std::vector<ValueRef>> domains;
  for (size_t i = 0; i < env.size(); ++i) {
    std::vector<ValueRef> values;
    const Hierarchy& h = env.parameter(i).hierarchy();
    for (LevelIndex l = 0; l < h.num_levels(); ++l) {
      for (ValueId id = 0; id < h.level_size(l); ++id) {
        values.push_back(ValueRef{l, id});
      }
    }
    domains.push_back(std::move(values));
  }
  std::vector<ContextState> out;
  for (ValueRef p : domains[0]) {
    for (ValueRef m : domains[1]) {
      out.push_back(ContextState({p, m}));
    }
  }
  return out;
}

constexpr size_t kAttrPool = 10;

// += not operator+ (GCC 12 -Wrestrict misfire, see bench_serving.cc).
std::string ValueName(size_t k) {
  std::string v("v");
  v += std::to_string(k);
  return v;
}

db::Relation MakeRelation() {
  StatusOr<db::Schema> schema =
      db::Schema::Create({{"attr", db::ColumnType::kString}});
  EXPECT_TRUE(schema.ok());
  db::Relation relation(std::move(*schema));
  for (size_t k = 0; k < kAttrPool; ++k) {
    EXPECT_OK(relation.Append({db::Value(ValueName(k))}));
  }
  return relation;
}

Profile RandomProfile(Rng& rng, EnvironmentPtr env,
                      const std::vector<ContextState>& world) {
  Profile profile(env);
  for (const ContextState& s : world) {
    if (!rng.Bernoulli(0.4)) continue;
    StatusOr<CompositeDescriptor> cod = CompositeDescriptor::ForState(*env, s);
    EXPECT_TRUE(cod.ok());
    StatusOr<ContextualPreference> pref = ContextualPreference::Create(
        std::move(*cod),
        AttributeClause{"attr", db::CompareOp::kEq,
                        db::Value(ValueName(rng.Uniform(kAttrPool)))},
        static_cast<double>(rng.Uniform(21)) * 0.05);
    EXPECT_TRUE(pref.ok());
    EXPECT_OK(profile.Insert(std::move(*pref)));
  }
  return profile;
}

/// Never-empty variant, so a publish always changes something.
Profile NonEmptyRandomProfile(Rng& rng, EnvironmentPtr env,
                              const std::vector<ContextState>& world) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    Profile p = RandomProfile(rng, env, world);
    if (!p.empty()) return p;
  }
  ADD_FAILURE() << "could not draw a non-empty profile";
  return Profile(env);
}

ContextualQuery QueryForState(const ContextEnvironment& env,
                              const ContextState& s) {
  StatusOr<CompositeDescriptor> cod = CompositeDescriptor::ForState(env, s);
  EXPECT_TRUE(cod.ok());
  ContextualQuery query;
  query.context = ExtendedDescriptor::FromComposite(std::move(*cod));
  return query;
}

/// Byte-identical result comparison: tuples (row ids AND bit-equal
/// scores via ScoredTuple::operator==) and the per-state candidate
/// sets with bit-equal distances.
void ExpectSameResult(const QueryResult& got, const QueryResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.tuples, want.tuples) << label;
  ASSERT_EQ(got.traces.size(), want.traces.size()) << label;
  for (size_t i = 0; i < got.traces.size(); ++i) {
    const std::vector<CandidatePath>& g = got.traces[i].candidates;
    const std::vector<CandidatePath>& w = want.traces[i].candidates;
    ASSERT_EQ(g.size(), w.size()) << label << " trace " << i;
    for (size_t j = 0; j < g.size(); ++j) {
      EXPECT_TRUE(g[j].state == w[j].state) << label << " candidate " << j;
      EXPECT_EQ(g[j].distance, w[j].distance)
          << label << " candidate " << j << ": distances not bit-equal";
      ASSERT_EQ(g[j].entries.size(), w[j].entries.size())
          << label << " candidate " << j;
      for (size_t k = 0; k < g[j].entries.size(); ++k) {
        EXPECT_EQ(g[j].entries[k].score, w[j].entries[k].score)
            << label << " candidate " << j << " entry " << k;
      }
    }
  }
}

class CoherenceDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// ---- (1) Replicated vs single shared cache vs uncached --------------
//
// Two stores are driven through the SAME sequence of >= 12 profile
// swaps (half PublishProfile, half ReloadUser from a directory the
// publishing store saved), so their serving-version counters stay in
// lockstep. Store A uses the eager single-shared-cache wiring; store B
// has no cache attached and serves through a replicated cache. At
// every version, for both distance kinds, every replica must serve
// byte-identically to the shared cache and to the uncached oracle —
// and the second (hit) pass through each cache must be byte-identical
// to the first (miss) pass that populated it.
TEST_P(CoherenceDifferentialTest, ReplicatedMatchesSingleCacheAcrossSwaps) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();

  // One cache (and one replicated cache) PER distance kind: cache
  // entries are keyed `(user, state, version)` with no resolution
  // options, so a cache serves exactly one query configuration —
  // mixing kinds against one cache would replay a hierarchy answer
  // for a Jaccard query. Deployments (and the harness's single
  // `distance` knob) work the same way.
  for (DistanceKind kind :
       {DistanceKind::kHierarchy, DistanceKind::kJaccard}) {
    Rng rng(GetParam() + (kind == DistanceKind::kJaccard ? 1000 : 0));
    QueryOptions options;
    options.resolution.distance = kind;

    const std::string dir = ::testing::TempDir() + "/ctxpref_coherence_" +
                            std::to_string(GetParam()) + "_" +
                            DistanceKindToString(kind);
    fs::remove_all(dir);
    fs::create_directories(dir);

    storage::ProfileStore eager_store(env);
    ContextQueryTree shared_cache(env, Ordering::Identity(env->size()));
    shared_cache.SetRetainStale(true);
    eager_store.AttachQueryCache(&shared_cache);

    storage::ProfileStore log_store(env);
    ReplicatedQueryCache::Options ropt;
    ropt.num_replicas = 3;
    ReplicatedQueryCache replicas(env, Ordering::Identity(env->size()), ropt);

    {
      Profile initial = NonEmptyRandomProfile(rng, env, world);
      ASSERT_OK(eager_store.CreateUser("u", initial));
      ASSERT_OK(log_store.CreateUser("u", std::move(initial)));
    }

    for (int swap = 0; swap < 13; ++swap) {
      ASSERT_EQ(eager_store.serving_version(), log_store.serving_version());
      StatusOr<storage::SnapshotPtr> pin = log_store.GetSnapshot("u");
      ASSERT_OK(pin.status());
      const uint64_t version = (*pin)->serving_version();

      for (int trial = 0; trial < 6; ++trial) {
        const ContextState& s = world[rng.Uniform(world.size())];
        const ContextualQuery query = QueryForState(*env, s);
        std::string label = "swap ";
        label += std::to_string(swap);
        label += " v";
        label += std::to_string(version);
        label += " ";
        label += DistanceKindToString(kind);
        label += " state ";
        label += s.ToString(*env);

        StatusOr<QueryResult> oracle = storage::ServeQuery(
            **pin, relation, query, /*cache=*/nullptr, options);
        ASSERT_OK(oracle.status());

        // Shared-cache path: miss pass then hit pass.
        for (int pass = 0; pass < 2; ++pass) {
          StatusOr<QueryResult> got = storage::ServeQuery(
              **pin, relation, query, &shared_cache, options);
          ASSERT_OK(got.status());
          ExpectSameResult(*got, *oracle,
                           label + " shared pass " + std::to_string(pass));
        }
        // Every replica, miss pass then hit pass, through the real
        // serving entry point (pin -> serve through the replica).
        for (size_t r = 0; r < replicas.num_replicas(); ++r) {
          for (int pass = 0; pass < 2; ++pass) {
            StatusOr<storage::ServedQuery> got =
                storage::ServeQuery(log_store, "u", relation, query,
                                    &replicas.replica(r), options);
            ASSERT_OK(got.status());
            ASSERT_EQ(got->snapshot->serving_version(), version) << label;
            ExpectSameResult(got->result, *oracle,
                             label + " replica " + std::to_string(r) +
                                 " pass " + std::to_string(pass));
          }
          // The hit really is a hit: a third serve must not miss.
          const CacheStats before = replicas.replica(r).Stats();
          StatusOr<storage::ServedQuery> again =
              storage::ServeQuery(log_store, "u", relation, query,
                                  &replicas.replica(r), options);
          ASSERT_OK(again.status());
          const CacheStats after = replicas.replica(r).Stats();
          EXPECT_GT(after.hits, before.hits) << label;
          EXPECT_EQ(after.misses, before.misses) << label;
        }
      }

      // Advance both stores through the same swap: even rounds publish
      // a fresh random profile, odd rounds reload from disk (saved by
      // the eager store, republished by both).
      if (swap % 2 == 0) {
        Profile next = NonEmptyRandomProfile(rng, env, world);
        ASSERT_OK(eager_store.PublishProfile("u", next));
        ASSERT_OK(log_store.PublishProfile("u", std::move(next)));
      } else {
        ASSERT_OK(eager_store.SaveAll(dir));
        ASSERT_OK(eager_store.ReloadUser("u", dir));
        ASSERT_OK(log_store.ReloadUser("u", dir));
      }
    }
    fs::remove_all(dir);
  }
}

// ---- (2) Seeded chaos: churn + stragglers + the stale rung ----------
//
// Writers churn the store (publish / update / remove+recreate) with no
// cache attached, so nothing ever prunes the replicas. Straggling
// readers hold snapshots across that churn and keep serving from them —
// writing entries of superseded versions, and of removed incarnations,
// into the replicas after the fact. Degraded serves (an already-expired
// deadline) then walk the stale rung over those replicas. Every answer
// must STILL be byte-identical to the uncached serve of the snapshot it
// claims to reflect, and a stale answer must never reach below the
// pinned snapshot's creation version: a removed user's answers never
// reach the re-created user. 200 ops per seed.
TEST_P(CoherenceDifferentialTest, ChaosChurnNeverServesTornAnswers) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();
  Rng rng(GetParam() + 977);

  storage::ProfileStore store(env);
  ReplicatedQueryCache::Options ropt;
  ropt.num_replicas = 4;
  ReplicatedQueryCache replicas(env, Ordering::Identity(env->size()), ropt);

  // Every snapshot ever published, by serving version: the oracle for
  // stale answers, which name only the version they reflect.
  std::map<uint64_t, storage::SnapshotPtr> published;
  auto record = [&](const std::string& uid) {
    StatusOr<storage::SnapshotPtr> snap = store.GetSnapshot(uid);
    ASSERT_OK(snap.status());
    published[(*snap)->serving_version()] = *snap;
  };
  for (const char* uid : {"u", "w"}) {
    ASSERT_OK(store.CreateUser(uid, NonEmptyRandomProfile(rng, env, world)));
    record(uid);
  }
  std::vector<storage::SnapshotPtr> stragglers;

  uint64_t fresh_serves = 0;
  uint64_t straggler_serves = 0;
  uint64_t stale_serves = 0;
  for (int op = 0; op < 200; ++op) {
    const uint32_t dice = rng.Uniform(100);
    const std::string uid = rng.Bernoulli(0.5) ? "u" : "w";
    ContextQueryTree& replica =
        replicas.replica(rng.Uniform(replicas.num_replicas()));
    const ContextualQuery query =
        QueryForState(*env, world[rng.Uniform(world.size())]);
    const std::string label = "op " + std::to_string(op);
    if (dice < 20) {  // Writer churn: wholesale publish.
      ASSERT_OK(
          store.PublishProfile(uid, NonEmptyRandomProfile(rng, env, world)));
      record(uid);
    } else if (dice < 30) {  // Writer churn: COW rescore.
      const double score = static_cast<double>(rng.Uniform(21)) * 0.05;
      ASSERT_OK(store.UpdateUser(uid, [score](Profile& p) {
        if (p.size() > 0) (void)p.UpdateScore(0, score);
        return Status::OK();
      }));
      record(uid);
    } else if (dice < 34) {  // Remove + recreate: a new incarnation.
      ASSERT_OK(store.RemoveUser(uid));
      ASSERT_OK(
          store.CreateUser(uid, NonEmptyRandomProfile(rng, env, world)));
      record(uid);
    } else if (dice < 42) {  // A reader pins and stalls.
      StatusOr<storage::SnapshotPtr> pin = store.GetSnapshot(uid);
      ASSERT_OK(pin.status());
      if (stragglers.size() == 8) stragglers.erase(stragglers.begin());
      stragglers.push_back(*pin);
    } else if (dice < 54) {  // A stalled reader finishes late.
      if (stragglers.empty()) continue;
      const storage::ProfileSnapshot& pinned =
          *stragglers[rng.Uniform(stragglers.size())];
      StatusOr<QueryResult> got =
          storage::ServeQuery(pinned, relation, query, &replica);
      ASSERT_OK(got.status());
      StatusOr<QueryResult> oracle =
          storage::ServeQuery(pinned, relation, query, /*cache=*/nullptr);
      ASSERT_OK(oracle.status());
      ExpectSameResult(*got, *oracle, label + " straggler");
      ++straggler_serves;
    } else if (dice < 70) {  // Overloaded: straight down the ladder.
      storage::ServeOptions so;
      so.query.deadline = util::Deadline::AfterMicros(0);
      so.allow_truncated = false;
      StatusOr<storage::ServedQuery> got = storage::ServeQueryResilient(
          store, uid, relation, query, &replica, so);
      if (!got.ok()) {
        // No consistent entry set in the stale window.
        EXPECT_TRUE(got.status().IsUnavailable()) << label;
        continue;
      }
      ASSERT_EQ(got->provenance.via, storage::ServedVia::kStale) << label;
      const uint64_t v = got->provenance.served_version;
      ASSERT_GE(v, got->snapshot->created_version())
          << label << ": stale rung crossed a user removal";
      ASSERT_LE(v, got->snapshot->serving_version()) << label;
      ASSERT_TRUE(published.count(v) > 0) << label;
      ASSERT_EQ(published[v]->user_id(), uid) << label;
      StatusOr<QueryResult> oracle = storage::ServeQuery(
          *published[v], relation, query, /*cache=*/nullptr);
      ASSERT_OK(oracle.status());
      ExpectSameResult(got->result, *oracle, label + " stale");
      ++stale_serves;
    } else {  // Fresh query through a random replica.
      StatusOr<storage::ServedQuery> got =
          storage::ServeQuery(store, uid, relation, query, &replica);
      ASSERT_OK(got.status());
      // The oracle for THIS answer is its own pinned snapshot,
      // uncached — stale replica state must never leak into it.
      StatusOr<QueryResult> oracle = storage::ServeQuery(
          *got->snapshot, relation, query, /*cache=*/nullptr);
      ASSERT_OK(oracle.status());
      ExpectSameResult(got->result, *oracle, label);
      ++fresh_serves;
    }
  }

  // The chaos must have exercised every reader kind.
  EXPECT_GT(fresh_serves, 0u);
  EXPECT_GT(straggler_serves, 0u);
  EXPECT_GT(stale_serves, 0u);
  const CacheStats stats = replicas.Stats();
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
}

// ---- (3) Directed: the one reclamation rule bounds replica memory ---
//
// Replicas have no invalidation hook, so their memory rests on the
// rule alone: one slot per (user, state), overwritten in place by
// Put, LRU beyond the capacity. After many publishes (and a removal
// and re-creation), each replica must hold no more entries than the
// distinct (user, state) keys it has served — no matter how many
// versions went by — and no more than its capacity.
TEST(ReplicatedQueryCacheTest, ReplicaMemoryBoundedByServedSlotsAndCapacity) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();

  for (const size_t capacity : {size_t{0}, size_t{5}}) {
    Rng rng(5150 + capacity);
    storage::ProfileStore store(env);
    ReplicatedQueryCache::Options ropt;
    ropt.num_replicas = 3;
    ropt.capacity_per_replica = capacity;
    ReplicatedQueryCache replicas(env, Ordering::Identity(env->size()), ropt);
    ASSERT_OK(store.CreateUser("u", NonEmptyRandomProfile(rng, env, world)));
    ASSERT_OK(store.CreateUser("w", NonEmptyRandomProfile(rng, env, world)));

    std::vector<std::set<std::pair<std::string, size_t>>> served(
        replicas.num_replicas());
    for (int publish = 0; publish < 60; ++publish) {
      const std::string writer = rng.Bernoulli(0.5) ? "u" : "w";
      if (publish == 30) {
        ASSERT_OK(store.RemoveUser(writer));
        ASSERT_OK(
            store.CreateUser(writer, NonEmptyRandomProfile(rng, env, world)));
      } else {
        ASSERT_OK(store.PublishProfile(
            writer, NonEmptyRandomProfile(rng, env, world)));
      }
      for (int q = 0; q < 6; ++q) {
        const std::string uid = rng.Bernoulli(0.5) ? "u" : "w";
        const size_t r = rng.Uniform(replicas.num_replicas());
        // A small hot set, so slots are revisited across versions.
        const size_t s = rng.Uniform(6);
        ASSERT_OK(storage::ServeQuery(store, uid, relation,
                                      QueryForState(*env, world[s]),
                                      &replicas.replica(r))
                      .status());
        served[r].emplace(uid, s);
      }
      for (size_t r = 0; r < replicas.num_replicas(); ++r) {
        const CacheStats stats = replicas.replica(r).Stats();
        EXPECT_LE(stats.size, served[r].size())
            << "replica " << r << " after publish " << publish;
        if (capacity > 0) {
          EXPECT_LE(stats.size, capacity)
              << "replica " << r << " after publish " << publish;
        }
        EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
      }
    }
    // Sixty publishes went by, yet an unbounded replica holds exactly
    // one slot per key it served: every version overwrote in place.
    for (size_t r = 0; r < replicas.num_replicas(); ++r) {
      const CacheStats stats = replicas.replica(r).Stats();
      if (capacity == 0) {
        EXPECT_EQ(stats.size, served[r].size()) << "replica " << r;
        EXPECT_EQ(stats.evictions, 0u);
      } else {
        EXPECT_GT(stats.evictions, 0u) << "replica " << r;
      }
    }
  }
}

// The degradation ladder over replicas: an overloaded request walks the
// stale rung of the replica it was given — and only that replica, since
// no replica ever sees another's entries — and its stale answer is
// byte-identical to a direct serve of the older snapshot.
TEST(ReplicatedQueryCacheTest, LadderServesStaleFromItsOwnReplica) {
  EnvironmentPtr env = TinyEnv();
  const std::vector<ContextState> world = AllExtendedStates(*env);
  const db::Relation relation = MakeRelation();
  Rng rng(777);

  storage::ProfileStore store(env);
  ReplicatedQueryCache replicas(env, Ordering::Identity(env->size()));
  ASSERT_EQ(replicas.num_replicas(), 2u);
  ASSERT_OK(store.CreateUser("u", NonEmptyRandomProfile(rng, env, world)));
  const ContextualQuery query = QueryForState(*env, world[0]);

  StatusOr<storage::ServedQuery> first = storage::ServeQueryResilient(
      store, "u", relation, query, &replicas.replica(0));
  ASSERT_OK(first.status());
  EXPECT_EQ(first->provenance.via, storage::ServedVia::kFresh);
  const storage::SnapshotPtr v1 = first->snapshot;
  ASSERT_OK(store.PublishProfile("u", NonEmptyRandomProfile(rng, env, world)));

  storage::ServeOptions overloaded;
  overloaded.query.deadline = util::Deadline::AfterMicros(0);
  overloaded.allow_truncated = false;
  StatusOr<storage::ServedQuery> stale = storage::ServeQueryResilient(
      store, "u", relation, query, &replicas.replica(0), overloaded);
  ASSERT_OK(stale.status());
  EXPECT_EQ(stale->provenance.via, storage::ServedVia::kStale);
  EXPECT_EQ(stale->provenance.served_version, v1->serving_version());
  EXPECT_EQ(stale->provenance.current_version, store.serving_version());
  StatusOr<QueryResult> oracle =
      storage::ServeQuery(*v1, relation, query, /*cache=*/nullptr);
  ASSERT_OK(oracle.status());
  ExpectSameResult(stale->result, *oracle, "stale via replica 0");

  // Replica 1 never served the user: nothing to degrade to.
  StatusOr<storage::ServedQuery> empty = storage::ServeQueryResilient(
      store, "u", relation, query, &replicas.replica(1), overloaded);
  EXPECT_TRUE(empty.status().IsUnavailable()) << empty.status().ToString();

  // Once replica 1 serves fresh, its stale rung answers at the current
  // version, while replica 0 keeps its v1 slot until it serves again.
  ASSERT_OK(storage::ServeQueryResilient(store, "u", relation, query,
                                         &replicas.replica(1))
                .status());
  StatusOr<storage::ServedQuery> current = storage::ServeQueryResilient(
      store, "u", relation, query, &replicas.replica(1), overloaded);
  ASSERT_OK(current.status());
  EXPECT_EQ(current->provenance.served_version, store.serving_version());
  uint64_t held = 0;
  EXPECT_NE(replicas.replica(0).LookupAtOrBefore(
                "u", world[0], store.serving_version(), 0, &held),
            nullptr);
  EXPECT_EQ(held, v1->serving_version());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceDifferentialTest,
                         ::testing::Values(9101, 9102, 9103, 9104));

}  // namespace
}  // namespace ctxpref

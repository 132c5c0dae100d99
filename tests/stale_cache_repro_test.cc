// Minimal single-threaded repro for the stale-cache bug (ISSUE 5):
// `ContextQueryTree` entries are tagged with `Profile::version()`, a
// per-object mutation counter that RESTARTS when `ProfileStore::
// ReloadUser` swaps in a profile loaded from disk. Two different
// profiles with the same number of mutations therefore carry the same
// version, and a cached entry computed from the retired profile keeps
// hitting — the cache serves results from a profile that no longer
// exists.
//
// The fix is the copy-on-write serving layer: `ProfileStore` publishes
// immutable snapshots under a store-owned *serving* version that is
// monotone across reloads and never reused, `storage::ServeQuery` tags
// cache entries with it, and every publish eagerly invalidates the
// user's entries. The tests below serve through that layer and pin
// the answer to the published profile across the swap.

#include <gtest/gtest.h>

#include <filesystem>

#include "context/parser.h"
#include "preference/query_cache.h"
#include "preference/replicated_query_cache.h"
#include "storage/profile_io.h"
#include "storage/profile_store.h"
#include "storage/serving.h"
#include "tests/test_util.h"
#include "util/deadline.h"
#include "workload/poi_dataset.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::Pref;
using ::ctxpref::testing::TestTempPath;

class StaleCacheReproTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(40, 11);
    ASSERT_OK(poi.status());
    poi_ = std::make_unique<workload::PoiDatabase>(std::move(*poi));
    env_ = poi_->env;
    dir_ = TestTempPath();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    StatusOr<ExtendedDescriptor> ecod =
        ParseExtendedDescriptor(*env_, "location = Plaka");
    ASSERT_OK(ecod.status());
    query_.context = *ecod;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// One-mutation profile scoring museums `score` in Plaka. Every call
  /// yields `Profile::version() == 1`, so any two of these collide on
  /// the version tag — the heart of the repro.
  Profile MuseumProfile(double score) {
    Profile p(env_);
    EXPECT_OK(
        p.Insert(Pref(*env_, "location = Plaka", "type", "museum", score)));
    EXPECT_EQ(p.version(), 1u);
    return p;
  }

  /// The score the ranked answer assigns to museums (the observable
  /// that tells the two profile versions apart).
  static double TopScore(const QueryResult& result) {
    EXPECT_FALSE(result.tuples.empty());
    return result.tuples.empty() ? -1.0 : result.tuples.front().score;
  }

  std::unique_ptr<workload::PoiDatabase> poi_;
  EnvironmentPtr env_;
  std::string dir_;
  ContextualQuery query_;
};

TEST_F(StaleCacheReproTest, ReloadUserMustNotServeStaleCachedResults) {
  storage::ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("u", MuseumProfile(0.9)));
  ContextQueryTree cache(env_, Ordering::Identity(env_->size()));

  store.AttachQueryCache(&cache);
  auto serve = [&]() -> StatusOr<QueryResult> {
    StatusOr<storage::ServedQuery> served =
        storage::ServeQuery(store, "u", poi_->relation, query_, &cache);
    if (!served.ok()) return served.status();
    return std::move(served->result);
  };

  StatusOr<QueryResult> before = serve();
  ASSERT_OK(before.status());
  EXPECT_DOUBLE_EQ(TopScore(*before), 0.9);

  // A second server rescored museums on disk; the new profile has the
  // same mutation count as the old one, so Profile::version() collides
  // across the swap (asserted below — the collision is the trap).
  ASSERT_OK(
      storage::WriteProfileFile(MuseumProfile(0.2), dir_ + "/u.profile"));
  ASSERT_OK(store.ReloadUser("u", dir_));
  auto reloaded = store.GetProfile("u");
  ASSERT_OK(reloaded.status());
  ASSERT_EQ((*reloaded)->version(), 1u);

  // The answer must reflect the published profile — never the retired
  // one. Without serving-version tags this hits the stale entry and
  // returns 0.9.
  StatusOr<QueryResult> after = serve();
  ASSERT_OK(after.status());
  EXPECT_DOUBLE_EQ(TopScore(*after), 0.2)
      << "cache served a result from a retired profile version";
}

TEST_F(StaleCacheReproTest, VersionTagsProtectEvenWithoutEagerInvalidation) {
  // Defense in depth: with no cache attached to the store (so no
  // InvalidateUser on publish), the serving-version tag alone must
  // make post-swap lookups miss — the store-wide counter never reuses
  // a version.
  storage::ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("u", MuseumProfile(0.9)));
  ContextQueryTree cache(env_, Ordering::Identity(env_->size()));

  StatusOr<storage::ServedQuery> before =
      storage::ServeQuery(store, "u", poi_->relation, query_, &cache);
  ASSERT_OK(before.status());
  EXPECT_DOUBLE_EQ(TopScore(before->result), 0.9);
  EXPECT_GT(cache.size(), 0u);

  ASSERT_OK(store.PublishProfile("u", MuseumProfile(0.2)));
  // Entries are still in the cache (nobody invalidated)…
  EXPECT_GT(cache.size(), 0u);

  StatusOr<storage::ServedQuery> after =
      storage::ServeQuery(store, "u", poi_->relation, query_, &cache);
  ASSERT_OK(after.status());
  // …but the new snapshot's serving version makes them unservable.
  EXPECT_DOUBLE_EQ(TopScore(after->result), 0.2);
  EXPECT_GT(after->snapshot->serving_version(),
            before->snapshot->serving_version());
  EXPECT_GE(cache.invalidations(), 1u);  // Dropped on touch.
}

// Regression: the serving ladder's stale rung served a REMOVED user's
// answer to a re-created user with the same id. The race: a reader
// pinned the old incarnation, the user was removed (dropping its cache
// entries), and the pinned reader then finished — writing an entry of
// the removed incarnation back into the cache. The re-created user gets
// fresh serving versions, so exact-version hits never matched it, but
// the stale rung's window [current - max_stale_versions, current]
// reached back to it. The snapshot's `created_version()` now bounds the
// window below. Checked over a shared tree attached to the store and
// over a replica, which no removal ever reaches.
TEST_F(StaleCacheReproTest, StaleRungNeverServesARemovedIncarnation) {
  for (const bool replicated : {false, true}) {
    SCOPED_TRACE(replicated ? "replica tree" : "shared tree");
    storage::ProfileStore store(env_);
    ContextQueryTree shared(env_, Ordering::Identity(env_->size()));
    shared.SetRetainStale(true);
    ReplicatedQueryCache replicas(env_, Ordering::Identity(env_->size()));
    ContextQueryTree* cache = &shared;
    if (replicated) {
      cache = &replicas.replica(0);
    } else {
      store.AttachQueryCache(&shared);
    }

    ASSERT_OK(store.CreateUser("u", MuseumProfile(0.9)));
    StatusOr<storage::SnapshotPtr> pin = store.GetSnapshot("u");
    ASSERT_OK(pin.status());
    ASSERT_OK(store.RemoveUser("u"));
    // The pinned reader finishes after the removal: its entry, tagged
    // with the removed incarnation's version, lands in the cache.
    StatusOr<QueryResult> late =
        storage::ServeQuery(**pin, poi_->relation, query_, cache);
    ASSERT_OK(late.status());
    EXPECT_DOUBLE_EQ(TopScore(*late), 0.9);

    ASSERT_OK(store.CreateUser("u", MuseumProfile(0.2)));
    storage::ServeOptions so;
    so.query.deadline = util::Deadline::AfterMicros(0);  // Overloaded.
    StatusOr<storage::ServedQuery> served = storage::ServeQueryResilient(
        store, "u", poi_->relation, query_, cache, so);
    if (served.ok()) {
      EXPECT_NE(served->provenance.via, storage::ServedVia::kStale)
          << "served via " << served->provenance.ToString() << " top="
          << TopScore(served->result) << ": a removed user's answer";
      EXPECT_GE(served->provenance.served_version,
                served->snapshot->created_version());
    } else {
      EXPECT_TRUE(served.status().IsUnavailable())
          << served.status().ToString();
    }

    // The stale rung still serves the current incarnation's own older
    // versions: cache v2's answer, publish v3, serve overloaded.
    ASSERT_OK(
        storage::ServeQuery(store, "u", poi_->relation, query_, cache)
            .status());
    ASSERT_OK(store.PublishProfile("u", MuseumProfile(0.5)));
    StatusOr<storage::ServedQuery> stale = storage::ServeQueryResilient(
        store, "u", poi_->relation, query_, cache, so);
    ASSERT_OK(stale.status());
    EXPECT_EQ(stale->provenance.via, storage::ServedVia::kStale);
    EXPECT_DOUBLE_EQ(TopScore(stale->result), 0.2);
  }
}

}  // namespace
}  // namespace ctxpref

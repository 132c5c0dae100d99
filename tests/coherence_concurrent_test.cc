// TSan stress for replicated query caches (docs/coherence.md): N
// reader threads, each serving through its own retain-stale cache
// replica (plus a roaming reader that crosses into the others' trees),
// race a writer publishing new profile versions — with no invalidation
// hook anywhere. Every answer must be consistent with exactly ONE
// published version — zero torn answers — and each replica must hold
// at most one slot per (user, state) it served. Suite names match the
// `|Coherence` term of scripts/check.sh's TSan ctest filter.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "context/parser.h"
#include "preference/replicated_query_cache.h"
#include "storage/profile_store.h"
#include "storage/serving.h"
#include "tests/test_util.h"
#include "util/deadline.h"
#include "workload/poi_dataset.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::Pref;

/// Score published for version step `k`: a distinct point on the 0.05
/// grid per step (mod its period), applied to BOTH preferences — so
/// within one version every scored tuple carries the same score, and a
/// mixed-version answer is detectable as two differing scores.
double ScoreForStep(uint64_t k) {
  return 0.05 + static_cast<double>(k % 19) * 0.05;
}

class CoherenceConcurrentTest : public ::testing::Test {
 protected:
  /// The query's two states: one (user, state) slot each per replica.
  static constexpr size_t kQueryStates = 2;

  void SetUp() override {
    StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(60, 23);
    ASSERT_OK(poi.status());
    poi_ = std::make_unique<workload::PoiDatabase>(std::move(*poi));
    env_ = poi_->env;
    // Two query states, each resolved (and cached) independently; each
    // matches a different preference, so a torn answer would pair a
    // museum score from one version with a park score from another.
    StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
        *env_, "location = Plaka or location = Kifisia");
    ASSERT_OK(ecod.status());
    query_.context = *ecod;
  }

  Profile VersionedProfile(uint64_t step) {
    const double s = ScoreForStep(step);
    Profile p(env_);
    EXPECT_OK(
        p.Insert(Pref(*env_, "location = Plaka", "type", "museum", s)));
    EXPECT_OK(
        p.Insert(Pref(*env_, "location = Kifisia", "type", "park", s)));
    return p;
  }

  /// Shared fresh-reader body: serve through replica `r` (or, with
  /// `roam`, through each replica in turn), compare every tuple's score
  /// to the one legal score of the snapshot the answer claims to come
  /// from. `tolerate_not_found` is for the remove/recreate test, where
  /// the user genuinely vanishes.
  void ReadLoop(const storage::ProfileStore& store,
                ReplicatedQueryCache& replicas, size_t r, bool roam,
                const std::atomic<bool>& stop, std::atomic<uint64_t>& torn,
                std::atomic<uint64_t>& answered, bool tolerate_not_found) {
    while (!stop.load(std::memory_order_relaxed)) {
      if (roam) r = (r + 1) % replicas.num_replicas();
      StatusOr<storage::ServedQuery> served =
          storage::ServeQuery(store, "u", poi_->relation, query_,
                              &replicas.replica(r));
      if (!served.ok()) {
        EXPECT_TRUE(tolerate_not_found && served.status().IsNotFound())
            << served.status().ToString();
        continue;
      }
      const double expect =
          served->snapshot->profile().preference(0).score();
      EXPECT_DOUBLE_EQ(
          served->snapshot->profile().preference(1).score(), expect);
      for (const db::ScoredTuple& t : served->result.tuples) {
        if (std::abs(t.score - expect) > 1e-12) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
      answered.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Overloaded-reader body: every request arrives past its deadline,
  /// so it is served by the stale rung or not at all. A stale answer
  /// must reflect one version (every tuple the same score) of the
  /// current incarnation of the user.
  void StaleReadLoop(const storage::ProfileStore& store,
                     ReplicatedQueryCache& replicas, size_t r,
                     const std::atomic<bool>& stop,
                     std::atomic<uint64_t>& torn,
                     std::atomic<uint64_t>& stale_answered) {
    storage::ServeOptions so;
    so.query.deadline = util::Deadline::AfterMicros(0);
    so.allow_truncated = false;
    while (!stop.load(std::memory_order_relaxed)) {
      StatusOr<storage::ServedQuery> served = storage::ServeQueryResilient(
          store, "u", poi_->relation, query_, &replicas.replica(r), so);
      if (!served.ok()) {
        EXPECT_TRUE(served.status().IsNotFound() ||
                    served.status().IsUnavailable())
            << served.status().ToString();
        continue;
      }
      EXPECT_GE(served->provenance.served_version,
                served->snapshot->created_version());
      const std::vector<db::ScoredTuple>& tuples = served->result.tuples;
      for (const db::ScoredTuple& t : tuples) {
        if (std::abs(t.score - tuples.front().score) > 1e-12) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
      stale_answered.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Quiesce checks shared by every test: the stats invariant holds in
  /// every replica, and however many versions went by, a replica holds
  /// at most one slot per query state of the one user.
  void ExpectBounded(const ReplicatedQueryCache& replicas) {
    for (size_t r = 0; r < replicas.num_replicas(); ++r) {
      const CacheStats stats = replicas.replica(r).Stats();
      EXPECT_EQ(stats.lookups, stats.hits + stats.misses) << "replica " << r;
      EXPECT_LE(stats.size, kQueryStates) << "replica " << r;
    }
  }

  std::unique_ptr<workload::PoiDatabase> poi_;
  EnvironmentPtr env_;
  ContextualQuery query_;
};

// Writer churn: one reader per replica plus a roaming reader that
// serves through every replica in turn, so each tree is shared across
// threads while the writer publishes new versions nobody invalidates.
TEST_F(CoherenceConcurrentTest, ReplicasNeverTearUnderWriterChurn) {
  storage::ProfileStore store(env_);
  ReplicatedQueryCache::Options ropt;
  ropt.num_replicas = 3;
  ReplicatedQueryCache replicas(env_, Ordering::Identity(env_->size()), ropt);
  ASSERT_OK(store.CreateUser("u", VersionedProfile(0)));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> swaps{0};

  std::thread writer([&] {
    for (uint64_t step = 1; !stop.load(std::memory_order_relaxed); ++step) {
      EXPECT_OK(store.PublishProfile("u", VersionedProfile(step)));
      swaps.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (size_t r = 0; r <= replicas.num_replicas(); ++r) {
    const bool roam = r == replicas.num_replicas();
    readers.emplace_back([this, &store, &replicas, r, roam, &stop, &torn,
                          &answered] {
      ReadLoop(store, replicas, roam ? 0 : r, roam, stop, torn, answered,
               /*tolerate_not_found=*/false);
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u) << "version-inconsistent answers observed";
  EXPECT_GT(answered.load(), 0u);
  EXPECT_GT(swaps.load(), 0u);
  EXPECT_GT(replicas.Stats().lookups, 0u);
  ExpectBounded(replicas);
}

// Remove/recreate churn: removals race fresh reads and stale-rung
// reads over replicas that never hear of the removal. A reader may see
// NotFound (the user is gone) but never a removed generation's scores
// under a fresh snapshot, and never a stale answer from below the
// current incarnation's creation version.
TEST_F(CoherenceConcurrentTest, RemoveRecreateChurnStaysCoherent) {
  storage::ProfileStore store(env_);
  ReplicatedQueryCache::Options ropt;
  ropt.num_replicas = 2;
  ReplicatedQueryCache replicas(env_, Ordering::Identity(env_->size()), ropt);
  ASSERT_OK(store.CreateUser("u", VersionedProfile(0)));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> stale_answered{0};
  std::atomic<uint64_t> removals{0};

  std::thread writer([&] {
    for (uint64_t step = 1; !stop.load(std::memory_order_relaxed); ++step) {
      if (step % 7 == 0) {
        EXPECT_OK(store.RemoveUser("u"));
        EXPECT_OK(store.CreateUser("u", VersionedProfile(step)));
        removals.fetch_add(1, std::memory_order_relaxed);
      } else {
        EXPECT_OK(store.PublishProfile("u", VersionedProfile(step)));
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (size_t r = 0; r < replicas.num_replicas(); ++r) {
    readers.emplace_back([this, &store, &replicas, r, &stop, &torn,
                          &answered] {
      ReadLoop(store, replicas, r, /*roam=*/false, stop, torn, answered,
               /*tolerate_not_found=*/true);
    });
    readers.emplace_back([this, &store, &replicas, r, &stop, &torn,
                          &stale_answered] {
      StaleReadLoop(store, replicas, r, stop, torn, stale_answered);
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u) << "version-inconsistent answers observed";
  EXPECT_GT(answered.load(), 0u);
  EXPECT_GT(removals.load(), 0u);
  ExpectBounded(replicas);
}

}  // namespace
}  // namespace ctxpref

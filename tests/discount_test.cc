#include <gtest/gtest.h>

#include <cmath>

#include "context/parser.h"
#include "preference/contextual_query.h"
#include "preference/profile_tree.h"
#include "preference/query_cache.h"
#include "storage/profile_store.h"
#include "storage/serving.h"
#include "tests/test_util.h"
#include "workload/poi_dataset.h"

namespace ctxpref {
namespace {

using ::ctxpref::testing::Pref;

TEST(ApplyDiscountTest, Formulas) {
  EXPECT_DOUBLE_EQ(ApplyDiscount(ScoreDiscount::kNone, 0.8, 5.0), 0.8);
  EXPECT_DOUBLE_EQ(ApplyDiscount(ScoreDiscount::kInverseDistance, 0.8, 0.0),
                   0.8);
  EXPECT_DOUBLE_EQ(ApplyDiscount(ScoreDiscount::kInverseDistance, 0.8, 1.0),
                   0.4);
  EXPECT_DOUBLE_EQ(ApplyDiscount(ScoreDiscount::kExponential, 0.8, 0.0), 0.8);
  EXPECT_DOUBLE_EQ(ApplyDiscount(ScoreDiscount::kExponential, 0.8, 2.0), 0.2);
}

TEST(ApplyDiscountTest, MonotoneInDistance) {
  for (ScoreDiscount d :
       {ScoreDiscount::kInverseDistance, ScoreDiscount::kExponential}) {
    double prev = 1.0;
    for (double dist = 0.0; dist <= 6.0; dist += 0.5) {
      double v = ApplyDiscount(d, 1.0, dist);
      EXPECT_LE(v, prev);
      EXPECT_GT(v, 0.0);
      prev = v;
    }
  }
}

TEST(ApplyDiscountTest, ToString) {
  EXPECT_STREQ(ScoreDiscountToString(ScoreDiscount::kNone), "none");
  EXPECT_STREQ(ScoreDiscountToString(ScoreDiscount::kInverseDistance),
               "inverse-distance");
  EXPECT_STREQ(ScoreDiscountToString(ScoreDiscount::kExponential),
               "exponential");
}

class DiscountedRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(50, 23);
    ASSERT_OK(poi.status());
    poi_ = std::make_unique<workload::PoiDatabase>(std::move(*poi));
    env_ = poi_->env;
  }
  std::unique_ptr<workload::PoiDatabase> poi_;
  EnvironmentPtr env_;
};

TEST_F(DiscountedRankTest, ExactMatchKeepsFullScore) {
  Profile p(env_);
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka and temperature = warm",
                          "name", "Acropolis", 0.8)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);

  ContextualQuery q;
  q.context = ExtendedDescriptor::FromComposite(*ParseCompositeDescriptor(
      *env_, "location = Plaka and temperature = warm"));
  QueryOptions options;
  options.discount = ScoreDiscount::kInverseDistance;
  StatusOr<QueryResult> result = RankCS(poi_->relation, q, resolver, options);
  ASSERT_OK(result.status());
  ASSERT_EQ(result->tuples.size(), 1u);
  EXPECT_DOUBLE_EQ(result->tuples[0].score, 0.8);  // Distance 0: undimmed.
}

TEST_F(DiscountedRankTest, DistantCoverIsDimmed) {
  Profile p(env_);
  ASSERT_OK(p.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.9)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);

  // Query at detailed level: the friends preference covers at
  // hierarchy distance 3 + 2 = 5 (location all, temperature all).
  ContextualQuery q;
  q.context = ExtendedDescriptor::FromComposite(*ParseCompositeDescriptor(
      *env_,
      "location = Plaka and temperature = warm and "
      "accompanying_people = friends"));

  QueryOptions plain;
  StatusOr<QueryResult> undimmed = RankCS(poi_->relation, q, resolver, plain);
  ASSERT_OK(undimmed.status());
  ASSERT_FALSE(undimmed->tuples.empty());
  EXPECT_DOUBLE_EQ(undimmed->tuples[0].score, 0.9);

  QueryOptions dimmed;
  dimmed.discount = ScoreDiscount::kInverseDistance;
  StatusOr<QueryResult> result = RankCS(poi_->relation, q, resolver, dimmed);
  ASSERT_OK(result.status());
  ASSERT_EQ(result->tuples.size(), undimmed->tuples.size());
  EXPECT_DOUBLE_EQ(result->tuples[0].score, 0.9 / (1.0 + 5.0));
}

TEST_F(DiscountedRankTest, DiscountReordersMixedDistanceAnswers) {
  Profile p(env_);
  // Near-exact weak preference vs. distant strong one.
  ASSERT_OK(p.Insert(Pref(*env_, "location = Plaka and temperature = warm",
                          "type", "cafeteria", 0.6)));
  ASSERT_OK(p.Insert(Pref(*env_, "*", "type", "brewery", 0.9)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);

  // Two query states (via or): one exact for the cafeteria pref, one
  // (Perama) resolved only by the all-state brewery pref.
  ContextualQuery q;
  q.context = *ParseExtendedDescriptor(
      *env_,
      "(location = Plaka and temperature = warm) or (location = Perama)");

  const size_t type_col = *poi_->relation.schema().IndexOf("type");
  auto top_type = [&](const QueryOptions& options) {
    StatusOr<QueryResult> result =
        RankCS(poi_->relation, q, resolver, options);
    EXPECT_OK(result.status());
    EXPECT_FALSE(result->tuples.empty());
    return poi_->relation.row(result->tuples.front().row_id)[type_col]
        .AsString();
  };

  QueryOptions plain;
  EXPECT_EQ(top_type(plain), "brewery");  // 0.9 undimmed wins.
  QueryOptions dimmed;
  dimmed.discount = ScoreDiscount::kExponential;
  // Brewery applies at distance 6 (all,all,all vs detailed Perama...):
  // 0.9·2^-6 ≈ 0.014; cafeteria exact keeps 0.6 and wins.
  EXPECT_EQ(top_type(dimmed), "cafeteria");
}

TEST_F(DiscountedRankTest, CachedServingAppliesTheDiscount) {
  // The cached paths score a miss with Rank_CS's own pass, so the
  // discount holds on a miss, on the hit that follows it, and through
  // the serving layer: each answer equals uncached Rank_CS over the
  // pointer tree.
  Profile p(env_);
  ASSERT_OK(p.Insert(
      Pref(*env_, "accompanying_people = friends", "type", "brewery", 0.9)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(p);
  ASSERT_OK(tree.status());
  TreeResolver pointer_resolver(&*tree);
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver flat_resolver(&flat);
  storage::ProfileStore store(env_);
  ASSERT_OK(store.CreateUser("u", p));

  // The friends preference covers this state at distance 5 (see
  // DistantCoverIsDimmed).
  ContextualQuery q;
  q.context = ExtendedDescriptor::FromComposite(*ParseCompositeDescriptor(
      *env_,
      "location = Plaka and temperature = warm and "
      "accompanying_people = friends"));

  for (ScoreDiscount discount :
       {ScoreDiscount::kInverseDistance, ScoreDiscount::kExponential}) {
    SCOPED_TRACE(ScoreDiscountToString(discount));
    QueryOptions options;
    options.discount = discount;
    StatusOr<QueryResult> want =
        RankCS(poi_->relation, q, pointer_resolver, options);
    ASSERT_OK(want.status());
    ASSERT_FALSE(want->tuples.empty());
    EXPECT_DOUBLE_EQ(want->tuples[0].score, ApplyDiscount(discount, 0.9, 5.0));

    // Cache entries are keyed by (user, state, version) only, so each
    // discount gets its own cache.
    ContextQueryTree cache(env_, Ordering::Identity(env_->size()));
    ContextQueryTree serving_cache(env_, Ordering::Identity(env_->size()));
    for (const char* pass : {"miss", "hit"}) {
      StatusOr<QueryResult> cached = CachedRankCS(
          poi_->relation, q, flat_resolver, "", p.version(), cache, options);
      ASSERT_OK(cached.status());
      EXPECT_EQ(cached->tuples, want->tuples) << "CachedRankCS " << pass;

      StatusOr<storage::ServedQuery> served = storage::ServeQuery(
          store, "u", poi_->relation, q, &serving_cache, options);
      ASSERT_OK(served.status());
      EXPECT_EQ(served->result.tuples, want->tuples) << "ServeQuery " << pass;
    }
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(serving_cache.hits(), 1u);
  }
}

}  // namespace
}  // namespace ctxpref

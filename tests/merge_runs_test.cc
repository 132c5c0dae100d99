// Differential test for db::MergeRankedRuns: seeded random pre-ranked
// runs merged by the ordered merge must equal, bit for bit, a reference
// db::Ranker fed every eligible tuple and then asked for Ranked()/TopK().

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "db/ranker.h"
#include "util/random.h"

namespace ctxpref::db {
namespace {

using ::ctxpref::Rng;

constexpr RowId kRows = 40;

/// Scores drawn from a small set so runs share scores (ties at the k-th
/// place) and mix 0.0 with -0.0.
double DrawScore(Rng& rng) {
  static constexpr double kScores[] = {1.0, 0.9, 0.75, 0.5, 0.25, 0.0, -0.0};
  return kScores[rng.Uniform(std::size(kScores))];
}

/// One run in the shape of a cached per-state list: distinct rows,
/// sorted (score desc, row asc) — what a single-state Ranker produces.
std::vector<ScoredTuple> RandomRun(Rng& rng) {
  if (rng.Bernoulli(0.15)) return {};
  Ranker state(CombinePolicy::kMax);
  const uint64_t n = 1 + rng.Uniform(30);
  for (uint64_t i = 0; i < n; ++i) {
    state.Add(rng.Uniform(kRows), DrawScore(rng));
  }
  return state.Ranked();
}

std::string Dump(const std::vector<ScoredTuple>& v) {
  std::string out;
  for (const ScoredTuple& t : v) {
    out += "(" + std::to_string(t.row_id) + "," + std::to_string(t.score) +
           (std::signbit(t.score) ? "-" : "") + ")";
  }
  return out;
}

/// Byte-for-byte equality: rows and the exact bit pattern of each score,
/// so 0.0 vs -0.0 counts as a difference.
bool BitEqual(const std::vector<ScoredTuple>& a,
              const std::vector<ScoredTuple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].row_id != b[i].row_id ||
        std::bit_cast<uint64_t>(a[i].score) !=
            std::bit_cast<uint64_t>(b[i].score)) {
      return false;
    }
  }
  return true;
}

std::vector<ScoredTuple> Reference(
    const std::vector<std::vector<ScoredTuple>>& runs, CombinePolicy policy,
    size_t top_k, const RowFilter& eligible) {
  Ranker ranker(policy);
  for (const std::vector<ScoredTuple>& run : runs) {
    for (const ScoredTuple& t : run) {
      if (!eligible || eligible(t.row_id)) ranker.Add(t.row_id, t.score);
    }
  }
  return top_k > 0 ? ranker.TopK(top_k) : ranker.Ranked();
}

std::vector<ScoredTuple> Merge(
    const std::vector<std::vector<ScoredTuple>>& runs, CombinePolicy policy,
    size_t top_k, const RowFilter& eligible) {
  std::vector<RankedRun> views(runs.begin(), runs.end());
  return MergeRankedRuns(views, policy, top_k, eligible);
}

TEST(MergeRankedRunsTest, MatchesReferenceRankerOnRandomRuns) {
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(seed);
    for (size_t num_runs = 1; num_runs <= 4; ++num_runs) {
      std::vector<std::vector<ScoredTuple>> runs;
      for (size_t r = 0; r < num_runs; ++r) runs.push_back(RandomRun(rng));
      std::vector<bool> keep(kRows);
      for (RowId row = 0; row < kRows; ++row) keep[row] = rng.Bernoulli(0.5);
      const RowFilter half = [&keep](RowId row) { return bool(keep[row]); };
      for (CombinePolicy policy :
           {CombinePolicy::kMax, CombinePolicy::kMin, CombinePolicy::kAvg}) {
        for (const RowFilter& eligible : {RowFilter{}, half}) {
          for (size_t top_k : {size_t{0}, size_t{1}, size_t{10}}) {
            const std::vector<ScoredTuple> want =
                Reference(runs, policy, top_k, eligible);
            const std::vector<ScoredTuple> got =
                Merge(runs, policy, top_k, eligible);
            ASSERT_TRUE(BitEqual(got, want))
                << "seed=" << seed << " runs=" << num_runs
                << " policy=" << CombinePolicyToString(policy)
                << " selections=" << (eligible ? "half" : "none")
                << " top_k=" << top_k << "\n got=" << Dump(got)
                << "\nwant=" << Dump(want);
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 150u * 4 * 3 * 2 * 3);
}

TEST(MergeRankedRunsTest, KeepsEveryTieAtTheKthScore) {
  const std::vector<std::vector<ScoredTuple>> runs = {
      {{4, 0.9}, {1, 0.5}, {6, 0.5}},
      {{2, 0.5}, {3, 0.5}, {5, 0.1}},
  };
  const std::vector<ScoredTuple> want = {
      {4, 0.9}, {1, 0.5}, {2, 0.5}, {3, 0.5}, {6, 0.5}};
  EXPECT_TRUE(BitEqual(Merge(runs, CombinePolicy::kMax, 2, {}), want));
  EXPECT_TRUE(BitEqual(Merge(runs, CombinePolicy::kMin, 2, {}), want));
}

TEST(MergeRankedRunsTest, SignedZeroTakesTheEarliestRunsValue) {
  // Ranker's max/min keep the first-added of two equal scores, so the
  // sign of a 0.0 / -0.0 tie comes from the earliest run holding it.
  const std::vector<std::vector<ScoredTuple>> runs = {
      {{7, -0.0}},
      {{7, 0.0}, {8, 0.0}},
  };
  for (CombinePolicy policy : {CombinePolicy::kMax, CombinePolicy::kMin}) {
    const std::vector<ScoredTuple> got = Merge(runs, policy, 0, {});
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].row_id, 7u);
    EXPECT_TRUE(std::signbit(got[0].score));
    EXPECT_FALSE(std::signbit(got[1].score));
  }
}

TEST(MergeRankedRunsTest, EmptyInputs) {
  EXPECT_TRUE(MergeRankedRuns({}, CombinePolicy::kMax, 5).empty());
  const std::vector<std::vector<ScoredTuple>> runs = {{}, {}, {}};
  EXPECT_TRUE(Merge(runs, CombinePolicy::kMax, 0, {}).empty());
  EXPECT_TRUE(Merge(runs, CombinePolicy::kMin, 3, {}).empty());
}

TEST(MergeRankedRunsTest, StopsReadingAtTopK) {
  // Distinct scores, no ties: the ordered paths read k rows plus the
  // one that proves the k-th is last, and filter only what they emit.
  std::vector<ScoredTuple> run;
  for (RowId row = 0; row < 100; ++row) {
    run.push_back({row, 1.0 - static_cast<double>(row) / 128});
  }
  size_t filtered = 0;
  const RowFilter count = [&filtered](RowId) {
    ++filtered;
    return true;
  };
  EXPECT_EQ(Merge({run}, CombinePolicy::kMax, 3, count).size(), 3u);
  EXPECT_EQ(filtered, 3u);
  filtered = 0;
  EXPECT_EQ(Merge({run, run}, CombinePolicy::kMax, 3, count).size(), 3u);
  EXPECT_EQ(filtered, 3u);
}

}  // namespace
}  // namespace ctxpref::db

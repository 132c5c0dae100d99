#ifndef CTXPREF_PREFERENCE_CONTEXTUAL_QUERY_H_
#define CTXPREF_PREFERENCE_CONTEXTUAL_QUERY_H_

#include <functional>
#include <vector>

#include "context/descriptor.h"
#include "db/index.h"
#include "db/ranker.h"
#include "db/relation.h"
#include "preference/resolution.h"
#include "preference/sequential_store.h"
#include "util/counters.h"
#include "util/deadline.h"
#include "util/status.h"

namespace ctxpref {

class ThreadPool;  // util/thread_pool.h
class Counter;           // util/metrics.h
class LatencyHistogram;  // util/histogram.h

/// Query-path metrics shared by `RankCS` and `CachedRankCS`, living in
/// `MetricsRegistry::Global()` (see docs/observability.md for the
/// catalog). Counters tick unconditionally; the latency histogram
/// records only while `MetricsRegistry::TimingEnabled()`.
struct RankMetrics {
  Counter& queries;         ///< ctxpref_rank_cs_queries_total
  Counter& cached_queries;  ///< ctxpref_rank_cs_cached_queries_total
  Counter& states;          ///< ctxpref_rank_cs_states_total
  Counter& tuples_scored;   ///< ctxpref_rank_cs_tuples_scored_total
  Counter& deadline_exceeded;  ///< ctxpref_rank_cs_deadline_exceeded_total
  Counter& states_abandoned;   ///< ctxpref_rank_cs_states_abandoned_total
  LatencyHistogram& latency;  ///< ctxpref_rank_cs_latency_ns

  static RankMetrics& Get();
};

/// A contextual query CQ (paper Def. 9): a query over the database
/// relation enhanced with an extended context descriptor. The
/// descriptor may come from the user's *current* context (one detailed
/// state) or be an explicit exploratory descriptor (Def. 8).
struct ContextualQuery {
  ExtendedDescriptor context;
  /// Optional extra selection predicates restricting which tuples may
  /// appear in the answer (e.g. "type = museum"); empty = whole
  /// relation is eligible.
  std::vector<db::Predicate> selections;
};

/// How (whether) a resolved preference's interest score is discounted
/// by the distance between its context state and the query state —
/// an extension of the paper's combining-function hook (§3.2/§4.4):
/// preferences that apply only via a distant covering state arguably
/// deserve less influence than near-exact matches.
enum class ScoreDiscount {
  kNone,             ///< Paper behavior: scores used as stated.
  kInverseDistance,  ///< score / (1 + distance).
  kExponential,      ///< score · 2^(-distance).
};

const char* ScoreDiscountToString(ScoreDiscount d);

/// Applies `discount` to `score` for a candidate at `distance`.
double ApplyDiscount(ScoreDiscount discount, double score, double distance);

/// Options for Rank_CS.
struct QueryOptions {
  ResolutionOptions resolution;
  /// Distance-based score discounting (kNone = the paper's semantics).
  ScoreDiscount discount = ScoreDiscount::kNone;
  /// Score-combination policy for tuples matched by several resolved
  /// preferences (paper §4.4).
  db::CombinePolicy combine = db::CombinePolicy::kMax;
  /// 0 = return all scored tuples.
  size_t top_k = 0;
  /// Optional equality indexes over the queried relation; when set,
  /// Rank_CS's selections use them instead of scanning (must have been
  /// built against the same relation).
  const db::IndexSet* indexes = nullptr;
  /// Optional shared worker pool for `CachedRankCS`: when set, the
  /// states of the extended descriptor are evaluated on it in parallel;
  /// when null they run inline. The merge order is fixed, so results do
  /// not depend on it. The pool may be shared by many queries.
  ThreadPool* pool = nullptr;
  /// Cancellation budget for the whole evaluation. Checked at cheap
  /// cancellation points — the per-state loops of `RankCS` /
  /// `CachedRankCS` and `ThreadPool` task dequeue (an expired queued
  /// state task is dropped, not run) — so an overloaded server stops
  /// spending cycles on answers nobody is waiting for. Expiry surfaces
  /// as `kDeadlineExceeded` with partial-work accounting in the
  /// message. Default: infinite (one null check per cancellation
  /// point). Declared last so existing designated initializers keep
  /// compiling.
  util::Deadline deadline;
};

/// Result of Rank_CS: scored tuples plus resolution diagnostics
/// (which preference states were used — the paper's usability study
/// leans on this traceability).
struct QueryResult {
  std::vector<db::ScoredTuple> tuples;
  /// Per query state: the chosen candidate paths (min distance, ties
  /// kept). Empty candidates = no covering preference for that state.
  struct Trace {
    ContextState query_state;
    std::vector<CandidatePath> candidates;
  };
  std::vector<Trace> traces;
};

/// Context-resolution backend Rank_CS draws candidates from; adapters
/// below wrap the profile tree and the sequential baseline so the
/// benchmark can swap them.
using ResolveFn = std::function<std::vector<CandidatePath>(
    const ContextState&, const ResolutionOptions&, AccessCounter*)>;

/// The row filter `RankCS` and the cached merge apply for
/// `query.selections`: admits a row iff every selection holds on it.
/// Empty (admits every row) when the query has no selections.
db::RowFilter SelectionFilter(const db::Relation& relation,
                              const ContextualQuery& query);

/// One state's scoring pass, shared by `RankCS` and `CachedRankCS`'s
/// miss path: runs each leaf entry's clause of `candidates` as a
/// selection over `relation` (through `options.indexes` when set) and
/// adds every row `eligible` admits (all rows when empty) to `ranker`,
/// with the entry's score discounted by its candidate's distance under
/// `options.discount`. Adds the number of ranker additions to
/// `*scored`. Checks `options.deadline` before each candidate's
/// selections and returns kDeadlineExceeded once it has passed.
Status ScoreCandidates(const db::Relation& relation,
                       const std::vector<CandidatePath>& candidates,
                       const QueryOptions& options,
                       const db::RowFilter& eligible, db::Ranker& ranker,
                       uint64_t* scored);

/// The paper's Rank_CS (Algorithm 2): for every state of the query's
/// extended descriptor, resolve the most relevant preferences, run each
/// resulting attribute clause as a selection over `relation`, annotate
/// qualifying tuples with the clause's score, combine duplicates under
/// `options.combine`, and return the ranked answer.
StatusOr<QueryResult> RankCS(const db::Relation& relation,
                             const ContextualQuery& query,
                             const ContextEnvironment& env,
                             const ResolveFn& resolve,
                             const QueryOptions& options = {},
                             AccessCounter* counter = nullptr);

/// Rank_CS against a profile tree (the paper's primary configuration).
StatusOr<QueryResult> RankCS(const db::Relation& relation,
                             const ContextualQuery& query,
                             const TreeResolver& resolver,
                             const QueryOptions& options = {},
                             AccessCounter* counter = nullptr);

/// Rank_CS against the arena-flattened tree (the serving hot path).
StatusOr<QueryResult> RankCS(const db::Relation& relation,
                             const ContextualQuery& query,
                             const FlatResolver& resolver,
                             const QueryOptions& options = {},
                             AccessCounter* counter = nullptr);

/// Rank_CS against the sequential baseline.
StatusOr<QueryResult> RankCS(const db::Relation& relation,
                             const ContextualQuery& query,
                             const SequentialStore& store,
                             const QueryOptions& options = {},
                             AccessCounter* counter = nullptr);

}  // namespace ctxpref

#endif  // CTXPREF_PREFERENCE_CONTEXTUAL_QUERY_H_

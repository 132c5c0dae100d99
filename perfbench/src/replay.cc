#include "replay.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "context/state.h"
#include "db/predicate.h"
#include "db/ranker.h"
#include "preference/flat_profile_tree.h"
#include "preference/query_cache.h"
#include "preference/resolution.h"
#include "storage/serving.h"
#include "util/counters.h"

namespace perfbench {

using ctxpref::CandidatePath;
using ctxpref::ContextQueryTree;
using ctxpref::ContextState;
using ctxpref::QueryResult;
using ctxpref::Status;
using ctxpref::StatusOr;

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    const uint64_t c = buckets_[i];
    if (c == 0 || static_cast<double>(seen + c) <= rank) {
      seen += c;
      continue;
    }
    double low = static_cast<double>(i);
    double width = 1.0;
    if (i >= 2 * kSub) {
      const size_t shift = i / kSub - 1;
      low = static_cast<double>((i % kSub + kSub) << shift);
      width = static_cast<double>(uint64_t{1} << shift);
    }
    const double within = (rank - static_cast<double>(seen) + 0.5) /
                          static_cast<double>(c);
    return low + within * width;
  }
  return 0.0;
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case kPin:
      return "storage.pin";
    case kAdmission:
      return "storage.admission";
    case kEnumerate:
      return "context.enumerate";
    case kCacheProbe:
      return "preference.cache_probe";
    case kSearchCS:
      return "preference.search_cs";
    case kResolveBest:
      return "preference.resolve_best";
    case kPredicateCompile:
      return "db.predicate_compile";
    case kSelect:
      return "db.select";
    case kRank:
      return "db.rank";
    case kCachePut:
      return "preference.cache_put";
    case kMergeTopK:
      return "preference.merge_topk";
    case kTraceCopy:
      return "preference.trace_copy";
    case kPoolWait:
      return "util.pool_wait";
    case kPublish:
      return "storage.publish";
    case kTreeBuild:
      return "preference.tree_build";
    case kFlatBuild:
      return "preference.flat_build";
    case kNumLayers:
      break;
  }
  return "?";
}

void LayerStats::Merge(const LayerStats& o) {
  for (size_t l = 0; l < kNumLayers; ++l) {
    self[l].Merge(o.self[l]);
    calls[l] += o.calls[l];
    total_ns[l] += o.total_ns[l];
  }
  queries += o.queries;
  lookups += o.lookups;
  hits += o.hits;
  resolved_states += o.resolved_states;
  cells += o.cells;
  winners += o.winners;
  rows_selected += o.rows_selected;
  tuples_merged += o.tuples_merged;
  tuples_returned += o.tuples_returned;
  paths_copied += o.paths_copied;
  traced_ns += o.traced_ns;
  explained_ns += o.explained_ns;
  replays += o.replays;
  mismatches += o.mismatches;
}

namespace {

/// One query state's share of a replay. Filled on whichever thread runs
/// the state (the caller, or a pool worker) and folded into the
/// caller's `LayerStats` after the states complete.
struct StateRun {
  Status status = Status::OK();
  std::vector<ctxpref::db::ScoredTuple> tuples;
  ContextQueryTree::CandidateSetPtr candidates;
  std::vector<std::pair<Layer, uint64_t>> events;
  uint64_t busy_ns = 0;   ///< Sum of `events`.
  uint64_t probe_ns = 0;  ///< The extra Search_CS probe.
  uint64_t wait_ns = 0;   ///< Submit to start on the pool.
  bool hit = false;
  uint64_t cells = 0;
  uint64_t winners = 0;
  uint64_t rows = 0;

  void Event(Layer layer, uint64_t ns) {
    events.emplace_back(layer, ns);
    busy_ns += ns;
  }
};

/// The per-state body of CachedRankCS (cache probe, then on a miss:
/// resolution, per-entry predicate compile + selection, per-state
/// ranking, cache put), one timer per call.
void RunState(const ReplayTarget& t, const ctxpref::storage::ProfileSnapshot& snap,
              const std::string& user, const ContextState& s, StateRun& out) {
  const ctxpref::QueryOptions& opts = t.stack->query_options();
  const ctxpref::db::Relation& relation = *t.relation;
  ContextQueryTree& cache = t.stack->cache();
  const uint64_t version = snap.serving_version();

  uint64_t a = NowNs();
  std::shared_ptr<const ContextQueryTree::Entry> cached =
      cache.Lookup(user, s, version, nullptr);
  if (cached != nullptr) {
    out.tuples = cached->tuples;
    out.candidates = cached->candidates;
  }
  uint64_t b = NowNs();
  out.Event(kCacheProbe, b - a);
  if (cached != nullptr) {
    out.hit = true;
    return;
  }

  // ResolveBest runs first, as on the served path. Search_CS is then
  // priced by a second call to the arena search ResolveBest runs
  // internally; ResolveBest's self time is its duration minus that.
  const ctxpref::FlatProfileTree& flat = *snap.flat_tree();
  const ctxpref::FlatResolver resolver(&flat);
  a = NowNs();
  std::vector<CandidatePath> best =
      resolver.ResolveBest(s, opts.resolution, nullptr);
  b = NowNs();
  const uint64_t resolve_ns = b - a;
  ctxpref::AccessCounter counter;
  std::vector<ctxpref::FlatProfileTree::FlatCandidate> flats;
  std::vector<uint32_t> paths;
  a = NowNs();
  flat.SearchCS(s, opts.resolution.distance, opts.resolution.exact_only,
                &counter, flats, paths);
  b = NowNs();
  out.probe_ns = b - a;
  out.Event(kSearchCS, out.probe_ns);
  out.Event(kResolveBest,
            resolve_ns > out.probe_ns ? resolve_ns - out.probe_ns : 0);
  out.cells = counter.cells();
  out.winners = best.size();

  a = NowNs();
  ctxpref::db::Ranker ranker(opts.combine);
  ranker.ReserveDense(relation.size());
  uint64_t rank_ns = NowNs() - a;
  for (const CandidatePath& cand : best) {
    for (const ctxpref::ProfileTree::LeafEntry& entry : cand.entries) {
      a = NowNs();
      StatusOr<ctxpref::db::Predicate> pred = ctxpref::db::Predicate::Create(
          relation.schema(), entry.clause.attribute, entry.clause.op,
          entry.clause.value);
      b = NowNs();
      out.Event(kPredicateCompile, b - a);
      if (!pred.ok()) {
        out.status = pred.status();
        return;
      }
      a = b;
      std::vector<ctxpref::db::RowId> rows = relation.Select(*pred);
      b = NowNs();
      out.Event(kSelect, b - a);
      out.rows += rows.size();
      a = b;
      for (ctxpref::db::RowId row : rows) ranker.Add(row, entry.score);
      rank_ns += NowNs() - a;
    }
  }
  a = NowNs();
  out.tuples = ranker.Ranked();
  b = NowNs();
  out.Event(kRank, rank_ns + (b - a));

  a = b;
  out.candidates =
      std::make_shared<const std::vector<CandidatePath>>(std::move(best));
  cache.Put(user, s, version, out.tuples, out.candidates);
  b = NowNs();
  out.Event(kCachePut, b - a);
}

}  // namespace

StatusOr<QueryResult> Replay(const ReplayTarget& t, const std::string& user,
                             const ctxpref::ContextualQuery& query,
                             LayerStats& stats,
                             ctxpref::storage::SnapshotPtr* pinned) {
  const ctxpref::QueryOptions& opts = t.stack->query_options();
  uint64_t caller_ns = 0;
  auto event = [&](Layer layer, uint64_t ns) {
    stats.Add(layer, ns);
    caller_ns += ns;
  };

  const uint64_t begin = NowNs();
  uint64_t a = begin;
  StatusOr<ctxpref::storage::SnapshotPtr> snap = t.store->GetSnapshot(user);
  if (!snap.ok()) return snap.status();
  std::optional<ctxpref::storage::SnapshotPin> pin;
  pin.emplace(*snap);
  uint64_t b = NowNs();
  const uint64_t pin_ns = b - a;

  a = b;
  ctxpref::storage::AdmissionController::Ticket ticket =
      t.stack->admission().Admit(ctxpref::storage::QueryPriority::kInteractive,
                                 t.stack->RequestDeadline());
  b = NowNs();
  const uint64_t admit_ns = b - a;
  if (!ticket.admitted()) return Status::Unavailable("replay: shed");

  a = b;
  const ctxpref::ContextEnvironment& env = (*pin)->tree().env();
  std::vector<ContextState> states = query.context.EnumerateStates(env);
  if (states.empty()) states.push_back(ContextState::AllState(env));
  for (const ContextState& s : states) {
    if (Status st = s.Validate(env); !st.ok()) return st;
  }
  b = NowNs();
  event(kEnumerate, b - a);

  std::vector<StateRun> runs(states.size());
  ctxpref::ThreadPool* pool = t.stack->pool();
  if (pool == nullptr) {
    for (size_t i = 0; i < states.size(); ++i) {
      RunState(t, **pin, user, states[i], runs[i]);
    }
  } else {
    // Same fan-out as CachedRankCS: one task per state on the shared
    // pool, completion counted under a mutex the waiter re-checks.
    std::mutex done_mu;
    std::condition_variable done_cv;
    size_t pending = states.size();
    const ctxpref::storage::ProfileSnapshot& snapshot = **pin;
    for (size_t i = 0; i < states.size(); ++i) {
      const uint64_t submitted = NowNs();
      pool->Submit([&, i, submitted] {
        StateRun& run = runs[i];
        run.wait_ns = NowNs() - submitted;
        run.Event(kPoolWait, run.wait_ns);
        RunState(t, snapshot, user, states[i], run);
        std::lock_guard<std::mutex> lock(done_mu);
        if (--pending == 0) done_cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return pending == 0; });
  }
  for (const StateRun& run : runs) {
    if (!run.status.ok()) return run.status;
  }

  // Merge as CachedRankCS does: re-apply the selections to each state's
  // list, combine, top-k; the shared candidate set is copied into the
  // trace once per state.
  QueryResult result;
  uint64_t merge_ns = 0;
  a = NowNs();
  ctxpref::db::Ranker ranker(opts.combine);
  for (size_t i = 0; i < states.size(); ++i) {
    const StateRun& run = runs[i];
    for (const ctxpref::db::ScoredTuple& tup : run.tuples) {
      bool eligible = true;
      for (const ctxpref::db::Predicate& sel : query.selections) {
        if (!sel.Eval(t.relation->row(tup.row_id))) {
          eligible = false;
          break;
        }
      }
      if (eligible) ranker.Add(tup.row_id, tup.score);
    }
    b = NowNs();
    merge_ns += b - a;
    a = b;
    result.traces.push_back(QueryResult::Trace{
        states[i], run.candidates != nullptr ? *run.candidates
                                             : std::vector<CandidatePath>{}});
    b = NowNs();
    event(kTraceCopy, b - a);
    a = b;
    stats.tuples_merged += run.tuples.size();
    stats.paths_copied += result.traces.back().candidates.size();
  }
  result.tuples = opts.top_k > 0 ? ranker.TopK(opts.top_k) : ranker.Ranked();
  b = NowNs();
  event(kMergeTopK, merge_ns + (b - a));

  a = b;
  ticket = ctxpref::storage::AdmissionController::Ticket();
  b = NowNs();
  event(kAdmission, admit_ns + (b - a));
  *pinned = *snap;
  a = b;
  pin.reset();
  b = NowNs();
  event(kPin, pin_ns + (b - a));
  const uint64_t end = b;

  // Blocking-path accounting: inline states add up, and the one-worker
  // pool runs them back to back, so the caller also waits through the
  // first handoff (later ones overlap the states ahead of them). The
  // extra Search_CS probes are left out of the traced time, since the
  // served path never runs them.
  uint64_t state_ns = runs[0].wait_ns;
  uint64_t probe_ns = 0;
  for (const StateRun& run : runs) {
    state_ns += run.busy_ns - run.wait_ns;
    probe_ns += run.probe_ns;
  }
  for (const StateRun& run : runs) {
    for (const auto& [layer, ns] : run.events) stats.Add(layer, ns);
    ++stats.lookups;
    if (run.hit) {
      ++stats.hits;
    } else {
      ++stats.resolved_states;
      stats.cells += run.cells;
      stats.winners += run.winners;
      stats.rows_selected += run.rows;
    }
  }
  const uint64_t wall = end - begin;
  stats.traced_ns += wall > probe_ns ? wall - probe_ns : 0;
  stats.explained_ns += caller_ns + state_ns;
  stats.tuples_returned += result.tuples.size();
  ++stats.queries;
  return result;
}

}  // namespace perfbench

#include "storage/serving.h"

#include <algorithm>

#include "preference/resolution.h"
#include "util/metrics.h"

namespace ctxpref::storage {

namespace {

LatencyHistogram& ReaderPinHistogram() {
  static LatencyHistogram* h = &MetricsRegistry::Global().GetHistogram(
      "ctxpref_profile_reader_pin_ns",
      "How long readers keep a ProfileSnapshot pinned");
  return *h;
}

/// Degradation-ladder outcome mix for `ServeQueryResilient` (the
/// admission decisions themselves are counted in admission.cc).
struct ServingMetrics {
  Counter& requests;
  Counter& fresh;
  Counter& stale;
  Counter& truncated;
  Counter& unavailable;
  Counter& deadline_hits;

  static ServingMetrics& Get() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static ServingMetrics* m = new ServingMetrics{
        reg.GetCounter("ctxpref_serving_requests_total",
                       "ServeQueryResilient requests"),
        reg.GetCounter("ctxpref_serving_fresh_total",
                       "Answers served by full evaluation"),
        reg.GetCounter("ctxpref_serving_stale_total",
                       "Answers served from the bounded-staleness cache rung"),
        reg.GetCounter("ctxpref_serving_truncated_total",
                       "Answers served by the truncated top-k rung"),
        reg.GetCounter("ctxpref_serving_unavailable_total",
                       "Requests that fell off the ladder (kUnavailable)"),
        reg.GetCounter("ctxpref_serving_deadline_hits_total",
                       "Requests pushed down the ladder by deadline expiry"),
    };
    return *m;
  }
};

}  // namespace

const char* ServedViaToString(ServedVia v) {
  switch (v) {
    case ServedVia::kFresh:
      return "fresh";
    case ServedVia::kStale:
      return "stale";
    case ServedVia::kTruncated:
      return "truncated";
    case ServedVia::kShed:
      return "shed";
  }
  return "unknown";
}

std::string ServingProvenance::ToString() const {
  switch (via) {
    case ServedVia::kStale:
      return "stale-v" + std::to_string(served_version);
    case ServedVia::kFresh:
    case ServedVia::kTruncated:
    case ServedVia::kShed:
      return ServedViaToString(via);
  }
  return "unknown";
}

SnapshotPin::SnapshotPin(SnapshotPtr snapshot)
    : snapshot_(std::move(snapshot)),
      start_nanos_(MetricsRegistry::TimingEnabled() ? MonotonicNanos() : 0) {}

SnapshotPin::~SnapshotPin() {
  if (start_nanos_ != 0 && snapshot_ != nullptr) {
    ReaderPinHistogram().Record(MonotonicNanos() - start_nanos_);
  }
}

StatusOr<QueryResult> ServeQuery(const ProfileSnapshot& snapshot,
                                 const db::Relation& relation,
                                 const ContextualQuery& query,
                                 ContextQueryTree* cache,
                                 const QueryOptions& options,
                                 AccessCounter* counter) {
  // Resolve against the snapshot's arena-flattened tree, the one
  // serving form (every snapshot carries it). Cached entries are tagged
  // with the snapshot's own identity: the serving version is unique
  // across swaps, so a stale entry can never be mistaken for a current
  // one.
  FlatResolver resolver(snapshot.flat_tree());
  if (cache != nullptr) {
    return CachedRankCS(relation, query, resolver, snapshot.user_id(),
                        snapshot.serving_version(), *cache, options, counter);
  }
  return RankCS(relation, query, resolver, options, counter);
}

StatusOr<ServedQuery> ServeQuery(const ProfileStore& store,
                                 const std::string& user_id,
                                 const db::Relation& relation,
                                 const ContextualQuery& query,
                                 ContextQueryTree* cache,
                                 const QueryOptions& options,
                                 AccessCounter* counter) {
  StatusOr<SnapshotPtr> snapshot = store.GetSnapshot(user_id);
  if (!snapshot.ok()) return snapshot.status();
  SnapshotPin pin(*snapshot);
  StatusOr<QueryResult> result =
      ServeQuery(*pin, relation, query, cache, options, counter);
  if (!result.ok()) return result.status();
  return ServedQuery{std::move(*result), pin.snapshot(), ServingProvenance{}};
}

namespace {

/// Ladder rung 1: a cached answer with every query state at ONE
/// consistent older serving version — mixed versions would be exactly
/// the torn answer the serving layer promises never to produce. The
/// merge is CachedRankCS's own (`MergeCachedStates`), so the result is
/// bit-identical to a direct ServeQuery pinned at that version — the
/// differential test's property. The window is
/// `[max(current - max_stale_versions, created_version), current]`:
/// below the snapshot's creation version lie entries of a removed
/// incarnation of the same user id, which a pinned reader may have
/// written after the removal dropped the user's entries.
bool TryServeStale(const ProfileSnapshot& snapshot,
                   const db::Relation& relation, const ContextualQuery& query,
                   const std::vector<ContextState>& states,
                   ContextQueryTree& cache, uint64_t max_stale_versions,
                   const QueryOptions& options, AccessCounter* counter,
                   QueryResult* out, uint64_t* served_version) {
  if (states.empty()) return false;
  // Same associativity rule as CachedRankCS: per-state lists only
  // merge correctly under kMax/kMin.
  if (options.combine != db::CombinePolicy::kMax &&
      options.combine != db::CombinePolicy::kMin) {
    return false;
  }
  const std::string& user_id = snapshot.user_id();
  const uint64_t current_version = snapshot.serving_version();
  const uint64_t min_version = std::max(
      current_version > max_stale_versions
          ? current_version - max_stale_versions
          : 0,
      snapshot.created_version());
  // The first state picks the consistent version V (newest available
  // within the window); every other state must then hit exactly V.
  uint64_t version = 0;
  std::vector<std::shared_ptr<const ContextQueryTree::Entry>> entries;
  entries.reserve(states.size());
  std::shared_ptr<const ContextQueryTree::Entry> first = cache.LookupAtOrBefore(
      user_id, states[0], current_version, min_version, &version, counter);
  if (first == nullptr) return false;
  entries.push_back(std::move(first));
  for (size_t i = 1; i < states.size(); ++i) {
    std::shared_ptr<const ContextQueryTree::Entry> e = cache.LookupAtOrBefore(
        user_id, states[i], version, version, nullptr, counter);
    if (e == nullptr) return false;
    entries.push_back(std::move(e));
  }

  *out = MergeCachedStates(relation, query, states, entries, options);
  *served_version = version;
  return true;
}

}  // namespace

StatusOr<ServedQuery> ServeQueryResilient(const ProfileStore& store,
                                          const std::string& user_id,
                                          const db::Relation& relation,
                                          const ContextualQuery& query,
                                          ContextQueryTree* cache,
                                          const ServeOptions& opts,
                                          AccessCounter* counter) {
  ServingMetrics& metrics = ServingMetrics::Get();
  metrics.requests.Increment();

  // Pinning is O(1) and the ladder's stale rung needs the pinned
  // version anyway, so the snapshot is pinned before admission.
  StatusOr<SnapshotPtr> snapshot = store.GetSnapshot(user_id);
  if (!snapshot.ok()) return snapshot.status();
  SnapshotPin pin(*snapshot);

  ServingProvenance provenance;
  provenance.current_version = pin->serving_version();

  // Front door: admit or shed, never queue. An expired deadline sheds
  // here too (kShedDeadline) — one clock read instead of a full pin +
  // first-cancellation-point round trip.
  AdmissionController::Ticket ticket;
  bool admitted = true;
  if (opts.admission != nullptr) {
    ticket = opts.admission->Admit(opts.priority, opts.query.deadline);
    provenance.admission = ticket.decision();
    admitted = ticket.admitted();
    if (ticket.decision() == AdmissionDecision::kShedDeadline) {
      provenance.deadline_hit = true;
    }
  } else if (opts.query.deadline.Expired()) {
    provenance.admission = AdmissionDecision::kShedDeadline;
    provenance.deadline_hit = true;
    admitted = false;
  }

  // Rung 0: full evaluation at the pinned version, deadline-checked at
  // every cancellation point along the way.
  if (admitted) {
    StatusOr<QueryResult> result =
        ServeQuery(*pin, relation, query, cache, opts.query, counter);
    if (result.ok()) {
      metrics.fresh.Increment();
      provenance.via = ServedVia::kFresh;
      provenance.served_version = pin->serving_version();
      return ServedQuery{std::move(*result), pin.snapshot(), provenance};
    }
    if (!result.status().IsDeadlineExceeded()) {
      return result.status();  // A bug, not overload: surface it.
    }
    provenance.deadline_hit = true;
    metrics.deadline_hits.Increment();
  } else if (provenance.deadline_hit) {
    metrics.deadline_hits.Increment();
  }

  // The ladder needs the enumerated query states (the stale rung joins
  // per-state cache entries; the truncated rung keeps only the first).
  const ContextEnvironment& env = pin->tree().env();
  std::vector<ContextState> states = query.context.EnumerateStates(env);
  if (states.empty()) states.push_back(ContextState::AllState(env));
  for (const ContextState& s : states) {
    CTXPREF_RETURN_IF_ERROR(s.Validate(env));
  }

  // Rung 1: bounded-staleness cached answer at one older version.
  if (cache != nullptr && opts.allow_stale && opts.max_stale_versions > 0) {
    QueryResult stale;
    uint64_t served_version = 0;
    if (TryServeStale(*pin, relation, query, states, *cache,
                      opts.max_stale_versions, opts.query, counter, &stale,
                      &served_version)) {
      metrics.stale.Increment();
      provenance.via = ServedVia::kStale;
      provenance.served_version = served_version;
      return ServedQuery{std::move(stale), pin.snapshot(), provenance};
    }
  }

  // Rung 2: truncated answer — first state only, reduced top-k, no
  // cache writes. Keeps the request's deadline: if it is already gone,
  // the first cancellation point aborts this rung too.
  if (opts.allow_truncated) {
    StatusOr<CompositeDescriptor> first_cod =
        CompositeDescriptor::ForState(env, states[0]);
    if (first_cod.ok()) {
      ContextualQuery truncated_query{
          ExtendedDescriptor::FromComposite(std::move(*first_cod)),
          query.selections};
      QueryOptions truncated_options = opts.query;
      truncated_options.top_k = opts.truncated_top_k;
      StatusOr<QueryResult> result =
          ServeQuery(*pin, relation, truncated_query, /*cache=*/nullptr,
                     truncated_options, counter);
      if (result.ok()) {
        metrics.truncated.Increment();
        provenance.via = ServedVia::kTruncated;
        provenance.served_version = pin->serving_version();
        return ServedQuery{std::move(*result), pin.snapshot(), provenance};
      }
      if (!result.status().IsDeadlineExceeded()) return result.status();
    }
  }

  // Off the ladder.
  metrics.unavailable.Increment();
  return Status::Unavailable(
      std::string("serving: request shed (") +
      AdmissionDecisionToString(provenance.admission) +
      (provenance.deadline_hit ? ", deadline expired" : "") +
      "), no degraded answer available");
}

}  // namespace ctxpref::storage

#include "serving_adapter.h"

#include <sched.h>
#include <unistd.h>

#include "preference/ordering.h"

namespace perfbench {

using ctxpref::ContextQueryTree;
using ctxpref::Ordering;

ServingStack::ServingStack(ctxpref::EnvironmentPtr env,
                           const WorkloadSpec& spec)
    : cache_(env, Ordering::Identity(env->size()), spec.cache_capacity),
      deadline_us_(spec.deadline_us) {
  // Retain-stale keeps superseded entries reachable for the ladder's
  // stale rung; version tags keep fresh answers exact.
  cache_.SetRetainStale(true);
  if (spec.pool) {
    // The workers inherit the creating thread's CPU mask: create them
    // pinned to client 0's CPU, then restore this thread's mask.
    cpu_set_t mask;
    const bool saved = sched_getaffinity(0, sizeof mask, &mask) == 0;
    PinToCpu(0);
    pool_ = std::make_unique<ctxpref::ThreadPool>(1);
    if (saved) sched_setaffinity(0, sizeof mask, &mask);
  }
  serve_.query.resolution.distance = spec.distance;
  serve_.query.combine = ctxpref::db::CombinePolicy::kMax;
  serve_.query.top_k = spec.top_k;
  serve_.query.pool = pool_.get();
  serve_.admission = &admission_;
  serve_.truncated_top_k = spec.top_k;
}

void ServingStack::AttachTo(ctxpref::storage::ProfileStore& store) {
  store.AttachQueryCache(&cache_);
}

ctxpref::util::Deadline ServingStack::RequestDeadline() const {
  return deadline_us_ > 0 ? ctxpref::util::Deadline::AfterMicros(deadline_us_)
                          : ctxpref::util::Deadline();
}

ctxpref::StatusOr<ctxpref::storage::ServedQuery> ServingStack::Serve(
    const ctxpref::storage::ProfileStore& store, const std::string& user,
    const ctxpref::db::Relation& relation,
    const ctxpref::ContextualQuery& query) {
  ctxpref::storage::ServeOptions opts = serve_;
  opts.query.deadline = RequestDeadline();
  return ctxpref::storage::ServeQueryResilient(store, user, relation, query,
                                               &cache_, opts);
}

ctxpref::StatusOr<ctxpref::QueryResult> ServingStack::ServeAt(
    const ctxpref::storage::ProfileSnapshot& snapshot,
    const ctxpref::db::Relation& relation,
    const ctxpref::ContextualQuery& query) {
  return ctxpref::storage::ServeQuery(snapshot, relation, query, &cache_,
                                      serve_.query);
}

void PinToCpu(size_t slot) {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  if (cpus < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>((slot + 1) % static_cast<size_t>(cpus)), &set);
  sched_setaffinity(0, sizeof set, &set);  // Best effort.
}

}  // namespace perfbench

#ifndef PERFBENCH_SERVING_ADAPTER_H_
#define PERFBENCH_SERVING_ADAPTER_H_

// The benchmark's only calls into the serving API. The stack is
// configured once per run: an AdmissionController, one shared
// retain-stale ContextQueryTree attached to the ProfileStore, and an
// optional shared per-state ThreadPool. Folding the serving entry points
// into one changes this file and nothing else in the benchmark.

#include <memory>
#include <string>

#include "bench.h"
#include "db/relation.h"
#include "preference/query_cache.h"
#include "storage/admission.h"
#include "storage/profile_store.h"
#include "storage/serving.h"
#include "util/thread_pool.h"

namespace perfbench {

class ServingStack {
 public:
  ServingStack(ctxpref::EnvironmentPtr env, const WorkloadSpec& spec);

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  /// Attaches the cache to `store`; call before serving from it.
  void AttachTo(ctxpref::storage::ProfileStore& store);

  /// One request through `storage::ServeQueryResilient`.
  ctxpref::StatusOr<ctxpref::storage::ServedQuery> Serve(
      const ctxpref::storage::ProfileStore& store, const std::string& user,
      const ctxpref::db::Relation& relation,
      const ctxpref::ContextualQuery& query);

  /// The same query against an already-pinned snapshot
  /// (`storage::ServeQuery`), through the shared cache.
  ctxpref::StatusOr<ctxpref::QueryResult> ServeAt(
      const ctxpref::storage::ProfileSnapshot& snapshot,
      const ctxpref::db::Relation& relation,
      const ctxpref::ContextualQuery& query);

  /// The query options every serve uses, without the per-request
  /// deadline.
  const ctxpref::QueryOptions& query_options() const { return serve_.query; }
  /// A fresh per-request deadline (infinite when the workload has none).
  ctxpref::util::Deadline RequestDeadline() const;
  size_t truncated_top_k() const { return serve_.truncated_top_k; }

  ctxpref::ContextQueryTree& cache() { return cache_; }
  ctxpref::storage::AdmissionController& admission() { return admission_; }
  /// Null when states run inline.
  ctxpref::ThreadPool* pool() { return pool_.get(); }

 private:
  ctxpref::ContextQueryTree cache_;
  ctxpref::storage::AdmissionController admission_;
  std::unique_ptr<ctxpref::ThreadPool> pool_;
  ctxpref::storage::ServeOptions serve_;
  int64_t deadline_us_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_ADAPTER_H_

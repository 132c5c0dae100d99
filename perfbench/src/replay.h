#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// The traced replay: one served query re-run as a sequence of calls into
// the layers' public functions, with a timer around each call. Nothing
// inside the library is instrumented; the replay reproduces the fresh
// path of `ServeQueryResilient` (pin, admission, CachedRankCS over the
// snapshot's flat tree) call for call, so its answer must equal the
// served one byte for byte.

#include <string>

#include "bench.h"
#include "db/relation.h"
#include "serving_adapter.h"
#include "storage/profile_store.h"

namespace perfbench {

struct ReplayTarget {
  const ctxpref::storage::ProfileStore* store = nullptr;
  const ctxpref::db::Relation* relation = nullptr;
  ServingStack* stack = nullptr;
};

/// Replays `query` for `user`, adding one timed call per layer step to
/// `stats`, and returns the answer together with the snapshot it was
/// computed from (in `*pinned`). Cache probes and puts go to the stack's
/// shared cache, exactly as a serve's would.
ctxpref::StatusOr<ctxpref::QueryResult> Replay(
    const ReplayTarget& target, const std::string& user,
    const ctxpref::ContextualQuery& query, LayerStats& stats,
    ctxpref::storage::SnapshotPtr* pinned);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// The answer oracle: a sampled served answer is recomputed with the
// uncached pointer-tree RankCS on the snapshot at the version it was
// served from, and the two are compared byte for byte.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "bench.h"
#include "db/relation.h"
#include "storage/profile_store.h"
#include "storage/serving.h"

namespace perfbench {

/// One served answer kept for the after-run check.
struct Sample {
  size_t request = 0;
  ctxpref::storage::ServedQuery served;
  /// The snapshot at `served.provenance.served_version` (for a stale
  /// answer an older one than `served.snapshot`); null if the history
  /// no longer held it.
  ctxpref::storage::SnapshotPtr at_version;
};

/// Published snapshots by serving version, so a stale answer can be
/// checked at the version it reflects. Keeps the newest `kKeep`.
class VersionHistory {
 public:
  void Record(ctxpref::storage::SnapshotPtr snapshot);
  ctxpref::storage::SnapshotPtr At(uint64_t version) const;

 private:
  static constexpr size_t kKeep = 512;
  mutable std::mutex mu_;
  std::map<uint64_t, ctxpref::storage::SnapshotPtr> by_version_;
};

/// Empty when `sample` equals the oracle's answer for `request`,
/// otherwise why not. `serve_options` are the options the stack served
/// with; a truncated answer is checked against its first state at
/// `truncated_top_k`.
std::string CheckSample(const Sample& sample, const Request& request,
                        const ctxpref::db::Relation& relation,
                        const ctxpref::QueryOptions& serve_options,
                        size_t truncated_top_k);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_

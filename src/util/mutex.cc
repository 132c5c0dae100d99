#include "util/mutex.h"

#include <cstdio>
#include <cstdlib>

namespace ctxpref::util {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked:
      return "unranked";
    case LockRank::kAdmission:
      return "admission";
    case LockRank::kUserMap:
      return "user-map";
    case LockRank::kPerUserWrite:
      return "per-user-write";
    case LockRank::kStoreSlot:
      return "store-slot";
    case LockRank::kCacheShard:
      return "cache-shard";
    case LockRank::kResilientSource:
      return "resilient-source";
    case LockRank::kFaultInjector:
      return "fault-injector";
    case LockRank::kMetricsRegistry:
      return "metrics-registry";
    case LockRank::kTraceRecorder:
      return "trace-recorder";
    case LockRank::kPoolQueue:
      return "pool-queue";
    case LockRank::kCompletion:
      return "completion";
  }
  return "invalid";
}

#if CTXPREF_LOCK_RANK_CHECKS

namespace internal {

namespace {

/// One ranked lock this thread currently holds. Unranked locks are
/// never pushed, so the stack stays tiny (the deepest documented
/// nesting is four locks).
struct HeldLock {
  const void* mu;
  LockRank rank;
  const char* name;
};

/// Fixed-capacity per-thread stack: no allocation on the lock path,
/// and trivially async-signal-safe to inspect. Deeper nesting than
/// this is itself a hierarchy smell, so overflow aborts too.
constexpr int kMaxHeld = 16;

struct HeldStack {
  HeldLock locks[kMaxHeld];
  int depth = 0;
};

thread_local HeldStack tls_held;

[[noreturn]] void Die(const char* format, const char* acquiring,
                      const char* held) {
  std::fprintf(stderr, format, acquiring, held);
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void PushHeldRank(const void* mu, LockRank rank, const char* name) {
  HeldStack& held = tls_held;
  if (rank != LockRank::kUnranked) {
    // The hierarchy rule: every ranked lock already held must rank
    // strictly lower. Equal ranks are violations too — two same-rank
    // locks held together is exactly the AB/BA shape the ranks exist
    // to forbid.
    for (int i = 0; i < held.depth; ++i) {
      if (held.locks[i].rank != LockRank::kUnranked &&
          held.locks[i].rank >= rank) {
        Die("lock-rank violation: acquiring '%s' while holding '%s' "
            "inverts the documented lock hierarchy "
            "(docs/static_analysis.md)\n",
            name, held.locks[i].name);
      }
    }
  }
  if (held.depth == kMaxHeld) {
    Die("lock-rank checker: thread holds %s locks acquiring '%s' — "
        "deeper nesting than the documented hierarchy allows\n",
        "16", name);
  }
  held.locks[held.depth++] = HeldLock{mu, rank, name};
}

void PopHeldRank(const void* mu) {
  HeldStack& held = tls_held;
  // Locks usually release LIFO, but std::unique_lock-style early
  // unlocks may release out of order, so search from the top.
  for (int i = held.depth - 1; i >= 0; --i) {
    if (held.locks[i].mu == mu) {
      for (int j = i; j + 1 < held.depth; ++j) {
        held.locks[j] = held.locks[j + 1];
      }
      --held.depth;
      return;
    }
  }
  // Unlocking a lock this thread never recorded: a wrapper bug, not a
  // user error — fail loudly.
  Die("lock-rank checker: unlocking '%s' which this thread does not "
      "hold%s\n",
      "util::Mutex", "");
}

}  // namespace internal

#endif  // CTXPREF_LOCK_RANK_CHECKS

}  // namespace ctxpref::util

#ifndef CTXPREF_UTIL_MUTEX_H_
#define CTXPREF_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <stop_token>

#include "util/annotations.h"

/// Annotated locking primitives for the whole tree.
///
/// Everything outside util/ locks through these wrappers instead of
/// the raw std primitives (scripts/lint.py enforces it), for two
/// layered guarantees:
///
///  1. **Compile-time**: the types carry Clang thread-safety
///     capability attributes, so `GUARDED_BY` fields and
///     `REQUIRES`-annotated helpers are machine-checked under
///     `-DCTXPREF_THREAD_SAFETY=ON` (docs/static_analysis.md).
///  2. **Run-time**: each mutex can be constructed with a `LockRank`;
///     a thread-local stack of held ranks aborts the process on any
///     acquisition that violates the documented lock hierarchy —
///     i.e. a potential deadlock — naming both locks involved. Rank
///     checking is compiled out unless CTXPREF_LOCK_RANK_CHECKS is 1
///     (CMake: -DCTXPREF_LOCK_RANK=ON|OFF|AUTO; AUTO enables it in
///     every build type except Release).
///
/// The static annotations prove *what lock guards what*; the rank
/// checker proves *in which order locks nest*, which annotations
/// cannot see. Together they catch the two classic concurrency
/// mistakes — unguarded access and lock-order inversion — before or
/// at the first test run instead of in production.

#ifndef CTXPREF_LOCK_RANK_CHECKS
#ifdef NDEBUG
#define CTXPREF_LOCK_RANK_CHECKS 0
#else
#define CTXPREF_LOCK_RANK_CHECKS 1
#endif
#endif

namespace ctxpref::util {

/// The documented lock hierarchy: a thread may acquire a ranked lock
/// only while every ranked lock it already holds has a *strictly
/// lower* rank. Ranks are listed in acquisition order — outermost
/// first — and spaced by 10 so future locks can slot between existing
/// levels. Keep this list in sync with docs/static_analysis.md.
enum class LockRank : int {
  /// No rank: the lock opts out of ordering checks (function-local
  /// completion latches, test fixtures).
  kUnranked = 0,
  /// AdmissionController::mu_ — the serving front door's in-flight
  /// accounting. Admission is decided before any store/cache/pool lock
  /// is touched and the ticket release takes it alone, so it sits
  /// outermost in the hierarchy.
  kAdmission = 5,
  /// ProfileStore::users_mu_ — the user-map shape lock, taken first on
  /// every store operation.
  kUserMap = 10,
  /// ProfileStore::User::write_mu — serializes writers to one user;
  /// held across copy-edit-rebuild, around the slot swap below.
  kPerUserWrite = 20,
  /// ProfileStore::User::snap_mu — the published-snapshot pointer
  /// slot; innermost of the store locks.
  kStoreSlot = 30,
  /// ContextQueryTree shard mutexes; acquired under the store's write
  /// path via InvalidateUser, never two shards at once.
  kCacheShard = 40,
  /// ResilientSource::mu_ — held across a backend read, so it ranks
  /// below (acquired before) the fault injector's script lock.
  kResilientSource = 50,
  /// FaultInjectingSource::mu_ — the scripted backend used in chaos
  /// tests; acquired while a ResilientSource read is in flight.
  kFaultInjector = 60,
  /// MetricsRegistry::mu_ — name->metric map; leaf-level on every
  /// instrumented path (hot-path ticks are lock-free atomics).
  kMetricsRegistry = 70,
  /// TraceRecorder::mu_ — span ring buffer; spans record after
  /// user-visible locks are released.
  kTraceRecorder = 80,
  /// ThreadPool::mu_ — task-queue lock; never held while a task body
  /// (which may take any of the above) runs.
  kPoolQueue = 90,
  /// Function-local completion latches (e.g. CachedRankCS's
  /// done-counter): acquired last, hold nothing beneath.
  kCompletion = 100,
};

const char* LockRankName(LockRank rank);

namespace internal {
/// Rank bookkeeping, compiled out with the checker. `mu` is the
/// address of the wrapper (identity in diagnostics only).
void PushHeldRank(const void* mu, LockRank rank, const char* name);
void PopHeldRank(const void* mu);
}  // namespace internal

/// std::mutex with a capability annotation and optional rank checking.
///
/// `Lock`/`Unlock`/`TryLock` are the annotated API; lowercase
/// `lock`/`unlock` aliases satisfy the standard *Lockable* concept so
/// `CondVar` (condition_variable_any) can drive the mutex directly —
/// rank bookkeeping then stays correct across a wait's release/
/// reacquire cycle.
class CAPABILITY("mutex") Mutex {
 public:
  /// An unranked mutex: participates in the static analysis but not
  /// in runtime ordering checks.
  Mutex() = default;
  /// A ranked mutex. `name` must have static storage duration (it is
  /// kept, not copied) and names the lock in inversion diagnostics,
  /// e.g. "ProfileStore.users_mu".
  explicit Mutex(LockRank rank, const char* name)
#if CTXPREF_LOCK_RANK_CHECKS
      : rank_(rank), name_(name)
#endif
  {
    (void)rank;
    (void)name;
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    mu_.lock();
#if CTXPREF_LOCK_RANK_CHECKS
    internal::PushHeldRank(this, rank_, name_);
#endif
  }

  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if CTXPREF_LOCK_RANK_CHECKS
    // A successful try_lock cannot deadlock, but it still establishes
    // order for later blocking acquisitions, so it is recorded (and
    // checked: a try_lock that violates the hierarchy is a latent
    // blocking-lock bug).
    internal::PushHeldRank(this, rank_, name_);
#endif
    return true;
  }

  void Unlock() RELEASE() {
#if CTXPREF_LOCK_RANK_CHECKS
    internal::PopHeldRank(this);
#endif
    mu_.unlock();
  }

  // Standard Lockable spelling, for condition_variable_any and
  // std::lock_guard-style generic code inside util/.
  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return TryLock(); }

 private:
  std::mutex mu_;
#if CTXPREF_LOCK_RANK_CHECKS
  LockRank rank_ = LockRank::kUnranked;
  const char* name_ = "util::Mutex";
#endif
};

/// std::shared_mutex with a capability annotation and rank checking.
/// Shared and exclusive acquisitions occupy the same slot in the rank
/// hierarchy (a reader-held lock orders later acquisitions exactly
/// like a writer-held one).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(LockRank rank, const char* name)
#if CTXPREF_LOCK_RANK_CHECKS
      : rank_(rank), name_(name)
#endif
  {
    (void)rank;
    (void)name;
  }

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
    mu_.lock();
#if CTXPREF_LOCK_RANK_CHECKS
    internal::PushHeldRank(this, rank_, name_);
#endif
  }

  void Unlock() RELEASE() {
#if CTXPREF_LOCK_RANK_CHECKS
    internal::PopHeldRank(this);
#endif
    mu_.unlock();
  }

  void LockShared() ACQUIRE_SHARED() {
    mu_.lock_shared();
#if CTXPREF_LOCK_RANK_CHECKS
    internal::PushHeldRank(this, rank_, name_);
#endif
  }

  void UnlockShared() RELEASE_SHARED() {
#if CTXPREF_LOCK_RANK_CHECKS
    internal::PopHeldRank(this);
#endif
    mu_.unlock_shared();
  }

 private:
  std::shared_mutex mu_;
#if CTXPREF_LOCK_RANK_CHECKS
  LockRank rank_ = LockRank::kUnranked;
  const char* name_ = "util::SharedMutex";
#endif
};

/// RAII exclusive lock over `Mutex` — the tree's replacement for
/// std::lock_guard / std::unique_lock (lint-enforced outside util/).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII exclusive lock over `SharedMutex` (writer side).
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~WriterLock() RELEASE() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared lock over `SharedMutex` (reader side).
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() RELEASE() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable over `util::Mutex`.
///
/// Implemented on condition_variable_any so it drives the wrapper
/// directly: a wait's internal unlock/relock goes through
/// `Mutex::unlock`/`lock`, keeping both the rank stack and (under
/// Clang) the analysis's view of the wait consistent. The `REQUIRES`
/// contracts say waits must be called with the mutex held; the
/// stop_token overload mirrors `condition_variable_any` so
/// `ThreadPool`'s stop-aware worker wait keeps working.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  /// Blocks until notified; as always with condition variables, wrap
  /// in a predicate loop (or use the predicate overloads below).
  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) REQUIRES(mu) {
    cv_.wait(mu, std::move(pred));
  }

  /// Stop-token-aware wait: returns pred()'s value when a stop is
  /// requested, true otherwise.
  template <typename Pred>
  bool Wait(Mutex& mu, std::stop_token stop, Pred pred) REQUIRES(mu) {
    return cv_.wait(mu, std::move(stop), std::move(pred));
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace ctxpref::util

#endif  // CTXPREF_UTIL_MUTEX_H_

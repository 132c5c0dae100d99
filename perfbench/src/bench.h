#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared declarations of the serving benchmark: workload specs and their
// generated inputs, a fixed-memory latency histogram, the layer catalog
// the traced replay reports, and the byte encoding answers are compared
// in.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "context/distance.h"
#include "context/environment.h"
#include "preference/contextual_query.h"
#include "preference/profile.h"
#include "util/status.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Log-linear histogram over non-negative integers (nanoseconds): exact
/// below 256, then 128 buckets per power of two (under 0.8% relative
/// width; the library's LatencyHistogram has power-of-two buckets, too
/// coarse for bounds of a few percent). Fixed memory, so recording
/// millions of samples does not show up in the benchmark's own peak RSS.
class Histogram {
 public:
  Histogram() : buckets_(kBuckets, 0) {}

  void Record(uint64_t v) {
    ++buckets_[Index(v)];
    ++count_;
    sum_ += v;
  }
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }
  /// Value at quantile `q` in [0, 1], interpolated by rank inside the
  /// bucket that holds it; 0 when empty.
  double Quantile(double q) const;

 private:
  static constexpr size_t kSub = 128;
  static constexpr size_t kBuckets = 58 * kSub;

  static size_t Index(uint64_t v) {
    if (v < 2 * kSub) return static_cast<size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - 7;
    return static_cast<size_t>(shift) * kSub + static_cast<size_t>(v >> shift);
  }

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

/// Pins the calling thread to CPU `slot + 1` (modulo the CPU count), so
/// the benchmark's busy threads do not share a CPU in one run and not
/// in the next; CPU 0 is left to the main thread. Threads the caller
/// starts afterwards inherit the pin.
void PinToCpu(size_t slot);

/// One workload's shape. Every field is an input property the serving
/// stack's behaviour depends on; `SpecFor` documents the choices.
struct WorkloadSpec {
  std::string name;
  size_t users = 0;
  size_t pois = 0;
  /// Per-user profile sizes, log-spaced from prefs_min to prefs_max.
  size_t prefs_min = 0;
  size_t prefs_max = 0;
  /// Skew of the profiles' context draws (0 = uniform, else zipf(a)).
  double value_zipf_a = 0.0;
  /// Length of the generated request stream the clients cycle through.
  size_t requests = 0;
  /// Share of query states drawn from the user's stored states.
  double stored_state_share = 1.0;
  /// Lift probability of the random (non-stored) query states.
  double query_lift = 0.3;
  size_t min_states = 1;
  size_t max_states = 1;
  /// Share of queries that carry a restricting selection.
  double selection_share = 0.0;
  ctxpref::DistanceKind distance = ctxpref::DistanceKind::kHierarchy;
  size_t top_k = 10;
  size_t clients = 1;
  /// Hand each query state to a shared one-worker pool on the first
  /// client's CPU (false = states run inline). On that CPU a handoff is
  /// a context switch, not the wake-up of an idle virtual CPU, whose
  /// delay on a shared host swings with the host's load and swamped the
  /// tail when the pool had a worker per free CPU.
  bool pool = false;
  /// Query-cache capacity in entries (0 = unbounded).
  size_t cache_capacity = 0;
  /// Per-request deadline (0 = none).
  int64_t deadline_us = 0;
  /// Open-loop profile edits per second (0 = no writer).
  double writer_rate_hz = 0.0;
  /// Every Nth edit republishes the whole rescored profile.
  size_t republish_every = 0;
  /// Serve every distinct (user, state) once before timing.
  bool warm_every_state = false;
};

/// The workload named `name` at full size, or at a few-second size for
/// the self-test when `tiny`. InvalidArgument for unknown names.
ctxpref::StatusOr<WorkloadSpec> SpecFor(const std::string& name, bool tiny);

/// The names `SpecFor` accepts, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

struct Request {
  uint32_t user = 0;
  ctxpref::ContextualQuery query;
};

/// Everything a run serves, generated from the seed alone.
struct Inputs {
  ctxpref::EnvironmentPtr env;
  std::vector<std::string> user_ids;
  std::vector<ctxpref::Profile> profiles;
  std::vector<Request> requests;
  /// CRC-32 over the relation's rows, every profile's text form and the
  /// request stream: a changed generator reads as a changed workload.
  uint32_t fingerprint = 0;
};

ctxpref::StatusOr<Inputs> GenerateInputs(const WorkloadSpec& spec,
                                         uint64_t seed);

/// Byte encoding of an answer: tuples (row id, score bits) and traces
/// (query state, candidate states, distance bits, leaf entries). Two
/// answers are equal iff their encodings are.
std::string AnswerBytes(const ctxpref::QueryResult& result);

/// The layers one served query passes through, in path order, plus the
/// pool and writer layers. Names follow the `src/` modules.
enum Layer : uint8_t {
  kPin,
  kAdmission,
  kEnumerate,
  kCacheProbe,
  kSearchCS,
  kResolveBest,
  kPredicateCompile,
  kSelect,
  kRank,
  kCachePut,
  kMergeTopK,
  kTraceCopy,
  kPoolWait,
  kPublish,
  kTreeBuild,
  kFlatBuild,
  kNumLayers,
};

const char* LayerName(Layer layer);

/// Per-thread accumulation of a traced run; merged at the end.
struct LayerStats {
  std::array<Histogram, kNumLayers> self;
  std::array<uint64_t, kNumLayers> calls{};
  std::array<uint64_t, kNumLayers> total_ns{};

  uint64_t queries = 0;
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t resolved_states = 0;  ///< Cache misses that ran resolution.
  uint64_t cells = 0;            ///< AccessCounter cells of Search_CS.
  uint64_t winners = 0;          ///< Candidates ResolveBest kept.
  uint64_t rows_selected = 0;
  uint64_t tuples_merged = 0;
  uint64_t tuples_returned = 0;
  uint64_t paths_copied = 0;
  /// Replay wall time, minus the extra Search_CS probe the served path
  /// does not pay, and the part of it the layers account for.
  uint64_t traced_ns = 0;
  uint64_t explained_ns = 0;
  uint64_t replays = 0;
  uint64_t mismatches = 0;

  void Add(Layer layer, uint64_t ns) {
    self[layer].Record(ns);
    ++calls[layer];
    total_ns[layer] += ns;
  }
  void Merge(const LayerStats& other);
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

// Replicated vs single-shared query caches: does replication pay?
//
// Hit-rate throughput under read skew. N reader threads hammer a small
// hot set of context states (75% of accesses on one state), all hits,
// against two configurations:
//
//   single   one shared ContextQueryTree (the deployed default shard
//            count): every reader takes the hot state's shard lock
//            and bumps the same LRU + entry refcount
//   repl     a ReplicatedQueryCache, one private single-shard tree
//            per reader; a lookup is a plain Lookup on the reader's
//            own tree (replicas need no coherence step, see
//            docs/coherence.md)
//
// The rows BM_CoherenceHitRate_{SingleShared,Replicated}/<N>r
// (real_time = ns per hit) feed scripts/compare_bench.py --speedup,
// which gates replicated >= 1.5x single-shared in CI. The gate is
// meaningless when the readers time-slice one CPU, so check.sh and CI
// guard it on nproc; this binary always prints the ratio.
//
// Acceptance bar (exit code): every lookup hits (exit 3).
//
// Flags: --readers=N --duration_ms=D --json_out=FILE plus the shared
// --metrics family.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_metrics.h"
#include "preference/query_cache.h"
#include "preference/replicated_query_cache.h"
#include "workload/poi_dataset.h"

using namespace ctxpref;

namespace {

using SteadyClock = std::chrono::steady_clock;

struct Flags {
  size_t readers = 8;           // Reader threads == replicas.
  size_t duration_ms = 300;     // Per-configuration window.
  std::string json_out;
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--readers=", 10) == 0) {
      f.readers = static_cast<size_t>(std::atoll(arg + 10));
    } else if (std::strncmp(arg, "--duration_ms=", 14) == 0) {
      f.duration_ms = static_cast<size_t>(std::atoll(arg + 14));
    } else if (std::strncmp(arg, "--json_out=", 11) == 0) {
      f.json_out = arg + 11;
    }
  }
  if (f.readers == 0) f.readers = 1;
  return f;
}

ContextState MakeState(const ContextEnvironment& env,
                       std::vector<std::string> names) {
  StatusOr<ContextState> s = ContextState::FromNames(env, std::move(names));
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.status().ToString().c_str());
    std::abort();
  }
  return *s;
}

/// The hot set: a handful of fully-specified context states. Accesses
/// are skewed 3-in-4 onto the first — replication's best case (each
/// reader owns its copy) and shared sharding's worst (one shard's lock
/// and one entry's refcount take most of the traffic).
std::vector<ContextState> HotStates(const ContextEnvironment& env) {
  std::vector<ContextState> hot;
  hot.push_back(MakeState(env, {"Plaka", "warm", "friends"}));
  hot.push_back(MakeState(env, {"Kifisia", "warm", "friends"}));
  hot.push_back(MakeState(env, {"Plaka", "cold", "family"}));
  hot.push_back(MakeState(env, {"Monastiraki", "hot", "alone"}));
  return hot;
}

size_t SkewedIndex(uint64_t i, size_t hot_size) {
  return (i % 4 != 3) ? 0 : static_cast<size_t>((i / 4) % hot_size);
}

/// Per-hit cost over `flags.readers` threads. `lookup(t, s)` must
/// return true on a hit; returns hits/s and counts lookup failures
/// into `bad`.
template <typename LookupFn>
double MeasureHitRate(const Flags& flags,
                      const std::vector<ContextState>& hot,
                      std::atomic<uint64_t>& bad, LookupFn lookup) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};
  const SteadyClock::time_point start = SteadyClock::now();
  {
    std::vector<std::jthread> readers;
    for (size_t t = 0; t < flags.readers; ++t) {
      readers.emplace_back([&, t] {
        uint64_t local = 0, i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const ContextState& s = hot[SkewedIndex(i++, hot.size())];
          if (lookup(t, s)) {
            ++local;
          } else {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        }
        hits.fetch_add(local, std::memory_order_relaxed);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(flags.duration_ms));
    stop.store(true, std::memory_order_relaxed);
  }
  const double secs =
      std::chrono::duration<double>(SteadyClock::now() - start).count();
  return static_cast<double>(hits.load()) / secs;
}

struct Row {
  std::string name;
  double per_sec = 0;
};

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  // google-benchmark shape, so compare_bench.py --speedup can pair the
  // hit-rate rows. real_time = ns per operation: "lower is better",
  // matching the tool's base/target ratio convention.
  out << "{\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const double ns_per_op = rows[i].per_sec > 0 ? 1e9 / rows[i].per_sec : 1e12;
    out << "    {\"name\": \"" << rows[i].name
        << "\", \"run_type\": \"iteration\", \"real_time\": " << ns_per_op
        << ", \"cpu_time\": " << ns_per_op
        << ", \"time_unit\": \"ns\", \"ops_per_sec\": " << rows[i].per_sec
        << "}";
    out << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

int Run(const Flags& flags) {
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(60, 23);
  if (!poi.ok()) {
    std::fprintf(stderr, "%s\n", poi.status().ToString().c_str());
    return 1;
  }
  const EnvironmentPtr env = poi->env;
  const std::vector<ContextState> hot = HotStates(*env);
  const std::vector<db::ScoredTuple> tuples = {
      {1, 0.9}, {2, 0.8}, {3, 0.7}, {4, 0.6}};
  std::vector<Row> rows;
  std::atomic<uint64_t> bad{0};

  std::printf("Coherence hit-rate: %zu readers, %zu hot states (75%% on "
              "one), %u hardware threads\n\n",
              flags.readers, hot.size(), std::thread::hardware_concurrency());

  double shared_rate = 0, repl_rate = 0;
  {
    ContextQueryTree shared(env, Ordering::Identity(env->size()),
                            /*capacity=*/1024,
                            ContextQueryTree::kDefaultShards);
    for (const ContextState& s : hot) shared.Put(s, 1, tuples);
    shared_rate = MeasureHitRate(
        flags, hot, bad,
        [&shared](size_t, const ContextState& s) {
          return shared.Lookup(s, 1) != nullptr;
        });
  }
  {
    ReplicatedQueryCache::Options opts;
    opts.num_replicas = flags.readers;
    opts.capacity_per_replica = 1024;
    opts.num_shards = 1;
    ReplicatedQueryCache replicas(env, Ordering::Identity(env->size()), opts);
    for (size_t r = 0; r < replicas.num_replicas(); ++r) {
      for (const ContextState& s : hot) replicas.replica(r).Put(s, 1, tuples);
    }
    repl_rate = MeasureHitRate(
        flags, hot, bad,
        [&replicas](size_t t, const ContextState& s) {
          return replicas.replica(t).Lookup(s, 1) != nullptr;
        });
  }
  const std::string suffix = "/" + std::to_string(flags.readers) + "r";
  rows.push_back(Row{"BM_CoherenceHitRate_SingleShared" + suffix,
                     shared_rate});
  rows.push_back(Row{"BM_CoherenceHitRate_Replicated" + suffix, repl_rate});
  const double ratio = shared_rate > 0 ? repl_rate / shared_rate : 0.0;
  std::printf("%-28s %14.0f hits/s\n", "single shared (8 shards)",
              shared_rate);
  std::printf("%-28s %14.0f hits/s\n", "replicated (1 tree/reader)",
              repl_rate);
  std::printf("replicated / single-shared: %.2fx (CI bar >= 1.5x, gated by "
              "compare_bench.py when nproc > 1)\n",
              ratio);

  if (!flags.json_out.empty()) WriteJson(flags.json_out, rows);

  std::printf("\nlookup failures: %llu (bar: 0)\n",
              static_cast<unsigned long long>(bad.load()));
  if (bad.load() != 0) return 3;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ctxpref::bench::MetricsFlags metrics =
      ctxpref::bench::ParseMetricsFlags(argc, argv);
  const Flags flags = ParseFlags(argc, argv);
  const int rc = Run(flags);
  ctxpref::bench::DumpMetrics(metrics);
  return rc;
}

// Concurrency study for the sharded context query tree: T threads
// (T = 1, 2, 4, 8) hammer a warm cache with a Lookup-heavy mix
// (~90% Lookup / ~10% Put) and we report aggregate throughput, hit
// rate, and per-op p50/p99 latency. The acceptance bar for the
// sharding work is >= 2x aggregate Lookup+Put throughput at 4 threads
// vs 1 thread; a second table shows the same scaling for the full
// parallel CachedRankCS (worker pool over the descriptor's states).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_metrics.h"
#include "context/parser.h"
#include "preference/profile_tree.h"
#include "preference/query_cache.h"
#include "util/thread_pool.h"
#include "workload/poi_dataset.h"
#include "workload/query_generator.h"

using namespace ctxpref;

namespace {

using Clock = std::chrono::steady_clock;

double Percentile(std::vector<double>& sorted_ns, double p) {
  if (sorted_ns.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(p * (sorted_ns.size() - 1));
  return sorted_ns[idx];
}

struct RunResult {
  double ops_per_sec = 0;
  double hit_rate = 0;
  double p50_ns = 0;
  double p99_ns = 0;
};

/// `threads` workers each run `ops_per_thread` operations against a
/// shared, pre-warmed cache: 9 Lookups per Put, round-robin over the
/// query states. Latency is sampled per operation.
RunResult HammerCache(ContextQueryTree& cache,
                      const std::vector<ContextState>& states, size_t threads,
                      size_t ops_per_thread) {
  const CacheStats before = cache.Stats();
  std::vector<std::vector<double>> latencies(threads);
  auto start = Clock::now();
  {
    std::vector<std::jthread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        std::vector<double>& lat = latencies[t];
        lat.reserve(ops_per_thread / 8 + 1);
        for (size_t i = 0; i < ops_per_thread; ++i) {
          const ContextState& s = states[(t * 31 + i) % states.size()];
          // Sampling every 8th op keeps the clock reads from dominating
          // the measured throughput.
          const bool sample = i % 8 == 0;
          Clock::time_point op_start;
          if (sample) op_start = Clock::now();
          if (i % 10 == 9) {
            cache.Put(s, 1, {{static_cast<db::RowId>(i), 0.5}});
          } else {
            std::shared_ptr<const ContextQueryTree::Entry> hit =
                cache.Lookup(s, 1);
            (void)hit;
          }
          if (sample) {
            lat.push_back(std::chrono::duration<double, std::nano>(
                              Clock::now() - op_start)
                              .count());
          }
        }
      });
    }
  }  // Join.
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  const CacheStats after = cache.Stats();

  std::vector<double> all;
  for (std::vector<double>& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());

  RunResult r;
  r.ops_per_sec = static_cast<double>(threads * ops_per_thread) / secs;
  const uint64_t hits = after.hits - before.hits;
  const uint64_t misses = after.misses - before.misses;
  r.hit_rate = hits + misses == 0
                   ? 0.0
                   : static_cast<double>(hits) /
                         static_cast<double>(hits + misses);
  r.p50_ns = Percentile(all, 0.50);
  r.p99_ns = Percentile(all, 0.99);
  return r;
}

int RunCacheScaling() {
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(200, 11);
  if (!poi.ok()) {
    std::fprintf(stderr, "%s\n", poi.status().ToString().c_str());
    return 1;
  }
  // 64 distinct query states, all pre-inserted so the mix is warm.
  std::vector<ContextState> states =
      workload::RandomQueryBatch(*poi->env, 64, 7, 0.2);
  ContextQueryTree cache(poi->env, Ordering::Identity(poi->env->size()),
                         /*capacity=*/4096, /*num_shards=*/16);
  for (size_t i = 0; i < states.size(); ++i) {
    cache.Put(states[i], 1, {{static_cast<db::RowId>(i), 0.9}});
  }

  constexpr size_t kOpsPerThread = 200000;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("Warm sharded cache, 90%% Lookup / 10%% Put, %zu shards, "
              "%u hardware threads\n",
              cache.num_shards(), cores);
  if (cores <= 1) {
    std::printf("NOTE: single hardware thread; every multi-thread row "
                "time-slices one core, so the speedup column is "
                "informational only and no scaling bar applies.\n");
  } else if (cores < 4) {
    std::printf("NOTE: <4 hardware threads available; thread counts beyond "
                "%u time-slice one core and cannot show parallel speedup.\n",
                cores);
  }
  std::printf("\n");
  std::printf("%8s %14s %9s %12s %12s %9s\n", "threads", "ops/s", "hit%",
              "p50 (ns)", "p99 (ns)", "speedup");
  double base = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    RunResult r = HammerCache(cache, states, threads, kOpsPerThread);
    if (base == 0) base = r.ops_per_sec;
    std::printf("%8zu %14.0f %8.1f%% %12.0f %12.0f %8.2fx\n", threads,
                r.ops_per_sec, 100 * r.hit_rate, r.p50_ns, r.p99_ns,
                r.ops_per_sec / base);
  }
  return 0;
}

int RunRankScaling() {
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(500, 13);
  if (!poi.ok()) {
    std::fprintf(stderr, "%s\n", poi.status().ToString().c_str());
    return 1;
  }
  Profile profile(poi->env);
  auto add = [&](const char* cod, const char* attr, db::Value v, double s) {
    StatusOr<CompositeDescriptor> c = ParseCompositeDescriptor(*poi->env, cod);
    StatusOr<ContextualPreference> pref = ContextualPreference::Create(
        std::move(*c), AttributeClause{attr, db::CompareOp::kEq, std::move(v)},
        s);
    Status st = profile.Insert(std::move(*pref));
    if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
  };
  add("temperature = good", "open_air", db::Value(true), 0.8);
  add("temperature = bad", "open_air", db::Value(false), 0.75);
  add("accompanying_people = friends", "type", db::Value("brewery"), 0.9);
  add("accompanying_people = family", "type", db::Value("zoo"), 0.85);
  add("location = Athens", "type", db::Value("museum"), 0.7);
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  if (!tree.ok()) {
    std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  const FlatProfileTree flat = FlatProfileTree::Build(*tree);
  FlatResolver resolver(&flat);

  // A broad exploratory descriptor: every state of the 27-way cross
  // product is a unit of parallel work.
  StatusOr<ExtendedDescriptor> ecod = ParseExtendedDescriptor(
      *poi->env,
      "location in {Plaka, Kifisia, Perama} and "
      "temperature in {hot, warm, cold} and "
      "accompanying_people in {friends, family, alone}");
  if (!ecod.ok()) {
    std::fprintf(stderr, "%s\n", ecod.status().ToString().c_str());
    return 1;
  }
  ContextualQuery q;
  q.context = *ecod;

  std::printf("\nParallel CachedRankCS over one exploratory query "
              "(cold cache per run, shared pool)\n");
  if (std::thread::hardware_concurrency() <= 1) {
    std::printf("NOTE: single hardware thread; pool workers time-slice one "
                "core, so the speedup column is informational only.\n");
  }
  std::printf("\n");
  std::printf("%8s %14s %12s\n", "threads", "queries/s", "speedup");
  double base = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    QueryOptions options;
    // The pool is created once and shared across repeats, the way a
    // server front-end would hold one pool for all requests.
    ThreadPool pool(threads);
    if (threads > 1) options.pool = &pool;
    ContextQueryTree cache(poi->env, Ordering::Identity(poi->env->size()),
                           /*capacity=*/4096, /*num_shards=*/16);
    constexpr int kRepeats = 50;
    auto start = Clock::now();
    for (int i = 0; i < kRepeats; ++i) {
      cache.InvalidateAll();  // Keep every repeat cold: measure compute.
      StatusOr<QueryResult> r =
          CachedRankCS(poi->relation, q, resolver, "", profile.version(),
                       cache, options);
      if (!r.ok()) {
        std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
        return 1;
      }
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    const double qps = kRepeats / secs;
    if (base == 0) base = qps;
    std::printf("%8zu %14.2f %11.2fx\n", threads, qps, qps / base);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ctxpref::bench::MetricsFlags metrics =
      ctxpref::bench::ParseMetricsFlags(argc, argv);
  if (int rc = RunCacheScaling(); rc != 0) return rc;
  if (int rc = RunRankScaling(); rc != 0) return rc;
  ctxpref::bench::DumpMetrics(metrics);
  return 0;
}

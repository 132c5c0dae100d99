// Keeps the README honest: the quickstart, resilience, serving,
// overload, and observability snippets, almost verbatim (error
// handling via ASSERT instead of *-deref), must compile and behave as
// the README claims.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "context/parser.h"
#include "harness/scenario_config.h"
#include "harness/workload_runner.h"
#include "context/resilient_source.h"
#include "preference/contextual_query.h"
#include "preference/explain.h"
#include "preference/profile_tree.h"
#include "preference/query_cache.h"
#include "preference/replicated_query_cache.h"
#include "storage/admission.h"
#include "storage/profile_store.h"
#include "storage/serving.h"
#include "tests/test_util.h"
#include "util/deadline.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/trace.h"
#include "workload/poi_dataset.h"

namespace ctxpref {
namespace {

TEST(ReadmeSnippetTest, QuickstartWorksAsAdvertised) {
  // 1. A context environment.
  StatusOr<EnvironmentPtr> env_or = workload::MakePaperEnvironment();
  ASSERT_OK(env_or.status());
  EnvironmentPtr env = *env_or;

  // 2. A profile of contextual preferences.
  Profile profile(env);
  StatusOr<CompositeDescriptor> cod = ParseCompositeDescriptor(
      *env, "location = Plaka and temperature in {warm, hot}");
  ASSERT_OK(cod.status());
  StatusOr<ContextualPreference> pref = ContextualPreference::Create(
      std::move(*cod),
      {"name", db::CompareOp::kEq, db::Value("Acropolis")}, 0.8);
  ASSERT_OK(pref.status());
  Status st = profile.Insert(std::move(*pref));
  ASSERT_OK(st);

  // Conflicting re-insert is rejected, as the README promises.
  StatusOr<CompositeDescriptor> cod2 = ParseCompositeDescriptor(
      *env, "location = Plaka and temperature = warm");
  ASSERT_OK(cod2.status());
  StatusOr<ContextualPreference> conflicting = ContextualPreference::Create(
      std::move(*cod2),
      {"name", db::CompareOp::kEq, db::Value("Acropolis")}, 0.2);
  ASSERT_OK(conflicting.status());
  EXPECT_TRUE(profile.Insert(std::move(*conflicting)).IsConflict());

  // 3. Index it.
  StatusOr<ProfileTree> tree_or = ProfileTree::Build(profile);
  ASSERT_OK(tree_or.status());
  ProfileTree tree = std::move(*tree_or);
  TreeResolver resolver(&tree);

  // 4. Resolve a query context.
  StatusOr<ContextState> now =
      ContextState::FromNames(*env, {"Plaka", "hot", "friends"});
  ASSERT_OK(now.status());
  std::vector<CandidatePath> best = resolver.ResolveBest(*now);
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].state.ToString(*env), "(Plaka, hot, all)");

  // 5. Run the full contextual query over a relation.
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(60, 1);
  ASSERT_OK(poi.status());
  // The README's own profile targets the Acropolis landmark; rebuild
  // the same profile against the POI environment instance.
  Profile poi_profile(poi->env);
  StatusOr<CompositeDescriptor> cod3 = ParseCompositeDescriptor(
      *poi->env, "location = Plaka and temperature in {warm, hot}");
  ASSERT_OK(cod3.status());
  StatusOr<ContextualPreference> pref3 = ContextualPreference::Create(
      std::move(*cod3),
      {"name", db::CompareOp::kEq, db::Value("Acropolis")}, 0.8);
  ASSERT_OK(pref3.status());
  ASSERT_OK(poi_profile.Insert(std::move(*pref3)));
  StatusOr<ProfileTree> poi_tree = ProfileTree::Build(poi_profile);
  ASSERT_OK(poi_tree.status());
  TreeResolver poi_resolver(&*poi_tree);

  ContextualQuery q;
  StatusOr<CompositeDescriptor> qcod = ParseCompositeDescriptor(
      *poi->env, "location = Plaka and temperature = hot");
  ASSERT_OK(qcod.status());
  q.context = ExtendedDescriptor::FromComposite(std::move(*qcod));
  QueryOptions options;
  options.top_k = 20;
  StatusOr<QueryResult> result =
      RankCS(poi->relation, q, poi_resolver, options);
  ASSERT_OK(result.status());
  ASSERT_EQ(result->tuples.size(), 1u);
  const size_t name_col = *poi->relation.schema().IndexOf("name");
  EXPECT_EQ(poi->relation.row(result->tuples[0].row_id)[name_col].AsString(),
            "Acropolis");
  EXPECT_DOUBLE_EQ(result->tuples[0].score, 0.8);
}

TEST(ReadmeSnippetTest, ResilienceSnippetWorksAsAdvertised) {
  StatusOr<EnvironmentPtr> env_or = workload::MakePaperEnvironment();
  ASSERT_OK(env_or.status());
  EnvironmentPtr env = *env_or;

  // The README wires a flaky sensor through a ResilientSource; here
  // the sensor is scripted (and the clock fake) so the promised
  // stale-serving behavior is actually demonstrated.
  const Hierarchy& weather = env->parameter(1).hierarchy();
  FakeClock clock;
  auto flaky_sensor = std::make_unique<FaultInjectingSource>(
      1, *weather.Find(0, "warm"), &clock);
  FaultInjectingSource* raw = flaky_sensor.get();

  CurrentContext current(env);
  SourcePolicy policy;
  policy.stale_ttl_micros = 3'000'000;
  policy.lift_window_micros = 3'000'000;
  ASSERT_OK(current.AddSource(std::make_unique<ResilientSource>(
      *env, std::move(flaky_sensor), policy, &clock, /*seed=*/42)));

  SnapshotReport report = current.SnapshotWithReport();
  EXPECT_TRUE(report.fully_fresh());
  ASSERT_OK(report.state.Validate(*env));  // Always a usable state.

  // Backend goes down past the TTL: snapshot still serves, the value
  // lifts toward `all`, and the explanation names the degradation.
  raw->FailNext(12);
  clock.Advance(4'000'000);
  report = current.SnapshotWithReport();
  ASSERT_OK(report.state.Validate(*env));
  EXPECT_FALSE(report.fully_fresh());
  EXPECT_EQ(report.params[1].info.provenance, ReadProvenance::kStaleLifted);
  std::string text = ExplainAcquisition(*env, report);
  EXPECT_NE(text.find("stale-lifted-1"), std::string::npos);
}

TEST(ReadmeSnippetTest, ServingSnippetWorksAsAdvertised) {
  // "Serving profiles under updates": the README's store + cache +
  // ServeQuery flow, against the POI environment so the query
  // actually ranks tuples.
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(60, 1);
  ASSERT_OK(poi.status());
  EnvironmentPtr env = poi->env;
  const db::Relation& relation = poi->relation;

  Profile profile(env);
  StatusOr<CompositeDescriptor> cod = ParseCompositeDescriptor(
      *env, "location = Plaka and temperature in {warm, hot}");
  ASSERT_OK(cod.status());
  StatusOr<ContextualPreference> pref = ContextualPreference::Create(
      std::move(*cod),
      {"name", db::CompareOp::kEq, db::Value("Acropolis")}, 0.8);
  ASSERT_OK(pref.status());
  ASSERT_OK(profile.Insert(std::move(*pref)));

  ContextualQuery query;
  StatusOr<CompositeDescriptor> qcod = ParseCompositeDescriptor(
      *env, "location = Plaka and temperature = hot");
  ASSERT_OK(qcod.status());
  query.context = ExtendedDescriptor::FromComposite(std::move(*qcod));

  // --- the README snippet, ASSERTs in place of *-deref ---
  storage::ProfileStore store(env);
  ContextQueryTree cache(env, Ordering::Identity(env->size()));
  store.AttachQueryCache(&cache);          // publishes invalidate per user

  ASSERT_OK(store.CreateUser("alice", std::move(profile)));
  ASSERT_OK(store.UpdateUser("alice", [&](Profile& p) {  // copy-on-write
    return p.UpdateScore(0, 0.95);
  }));

  StatusOr<storage::ServedQuery> served =
      storage::ServeQuery(store, "alice", relation, query, &cache);
  ASSERT_OK(served.status());
  EXPECT_EQ(served->snapshot->user_id(), "alice");
  // --- end snippet ---

  // The served answer reflects the post-update score, and the version
  // it claims is the store's current serving version.
  ASSERT_EQ(served->result.tuples.size(), 1u);
  EXPECT_DOUBLE_EQ(served->result.tuples[0].score, 0.95);
  StatusOr<storage::SnapshotPtr> current = store.GetSnapshot("alice");
  ASSERT_OK(current.status());
  EXPECT_EQ(served->snapshot->serving_version(),
            (*current)->serving_version());
  // A second serve hits the cache.
  const uint64_t hits_before = cache.Stats().hits;
  ASSERT_OK(
      storage::ServeQuery(store, "alice", relation, query, &cache).status());
  EXPECT_GT(cache.Stats().hits, hits_before);
}

TEST(ReadmeSnippetTest, ReplicatedCacheSnippetWorksAsAdvertised) {
  // "Replicated query caches": the README's flow — build replicas,
  // serve through this thread's replica with the ladder, observe hits.
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(60, 1);
  ASSERT_OK(poi.status());
  EnvironmentPtr env = poi->env;
  const db::Relation& relation = poi->relation;

  Profile profile(env);
  StatusOr<CompositeDescriptor> cod = ParseCompositeDescriptor(
      *env, "location = Plaka and temperature in {warm, hot}");
  ASSERT_OK(cod.status());
  StatusOr<ContextualPreference> pref = ContextualPreference::Create(
      std::move(*cod),
      {"name", db::CompareOp::kEq, db::Value("Acropolis")}, 0.8);
  ASSERT_OK(pref.status());
  ASSERT_OK(profile.Insert(std::move(*pref)));

  ContextualQuery query;
  StatusOr<CompositeDescriptor> qcod = ParseCompositeDescriptor(
      *env, "location = Plaka and temperature = hot");
  ASSERT_OK(qcod.status());
  query.context = ExtendedDescriptor::FromComposite(std::move(*qcod));

  // --- the README snippet, ASSERTs in place of *-deref ---
  storage::ProfileStore store(env);
  ReplicatedQueryCache::Options ropt;
  ropt.num_replicas = 4;                   // one per serving thread
  ropt.capacity_per_replica = 4096;        // LRU bound per replica
  ReplicatedQueryCache replicas(env, Ordering::Identity(env->size()),
                                ropt);

  ASSERT_OK(store.CreateUser("alice", std::move(profile)));

  ContextQueryTree* mine = &replicas.replica(replicas.ReplicaForThisThread());
  StatusOr<storage::ServedQuery> served = storage::ServeQueryResilient(
      store, "alice", relation, query, mine);
  ASSERT_OK(served.status());
  EXPECT_EQ(served->snapshot->user_id(), "alice");
  // --- end snippet ---

  EXPECT_EQ(served->provenance.via, storage::ServedVia::kFresh);
  EXPECT_TRUE(mine->retain_stale());
  // The serve populated this thread's replica: a second serve hits it,
  // and no other replica was touched.
  const uint64_t hits_before = replicas.Stats().hits;
  ASSERT_OK(storage::ServeQueryResilient(store, "alice", relation, query,
                                         mine)
                .status());
  EXPECT_GT(replicas.Stats().hits, hits_before);
  EXPECT_EQ(replicas.Stats().size, mine->size());
  // A publish needs no hook: the next serve misses on the new version
  // and overwrites the slot in place, so the replica does not grow.
  const size_t size_before = mine->size();
  ASSERT_OK(store.PublishProfile("alice", Profile(env)));
  ASSERT_OK(storage::ServeQueryResilient(store, "alice", relation, query,
                                         mine)
                .status());
  EXPECT_EQ(mine->size(), size_before);
}

TEST(ReadmeSnippetTest, OverloadSnippetWorksAsAdvertised) {
  // "Serving under overload": the README's admission + deadline +
  // ServeQueryResilient flow. Setup mirrors the serving snippet.
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(60, 1);
  ASSERT_OK(poi.status());
  EnvironmentPtr env = poi->env;
  const db::Relation& relation = poi->relation;

  Profile profile(env);
  StatusOr<CompositeDescriptor> cod = ParseCompositeDescriptor(
      *env, "location = Plaka and temperature in {warm, hot}");
  ASSERT_OK(cod.status());
  StatusOr<ContextualPreference> pref = ContextualPreference::Create(
      std::move(*cod),
      {"name", db::CompareOp::kEq, db::Value("Acropolis")}, 0.8);
  ASSERT_OK(pref.status());
  ASSERT_OK(profile.Insert(std::move(*pref)));

  ContextualQuery query;
  StatusOr<CompositeDescriptor> qcod = ParseCompositeDescriptor(
      *env, "location = Plaka and temperature = hot");
  ASSERT_OK(qcod.status());
  query.context = ExtendedDescriptor::FromComposite(std::move(*qcod));

  storage::ProfileStore store(env);
  ContextQueryTree cache(env, Ordering::Identity(env->size()));
  store.AttachQueryCache(&cache);
  ASSERT_OK(store.CreateUser("alice", std::move(profile)));

  // --- the README snippet, ASSERTs in place of Log/assert ---
  storage::AdmissionController admission(
      {.max_in_flight = 64, .maintenance_max_in_flight = 16});
  cache.SetRetainStale(true);   // keep old versions for the stale rung

  storage::ServeOptions opts;
  opts.admission = &admission;
  opts.query.deadline = util::Deadline::AfterMicros(20'000);  // 20 ms

  StatusOr<storage::ServedQuery> served = storage::ServeQueryResilient(
      store, "alice", relation, query, &cache, opts);
  ASSERT_OK(served.status());
  // "fresh", "stale-v<N>", or "truncated" — never a torn answer.
  EXPECT_EQ(served->provenance.ToString(), "fresh");
  // --- end snippet ---

  // Overload maps to kUnavailable, as the README's else-branch claims:
  // a full house with every fallback rung disabled sheds the request.
  storage::AdmissionController full_house({.max_in_flight = 0});
  storage::ServeOptions no_fallback;
  no_fallback.admission = &full_house;
  no_fallback.allow_stale = false;
  no_fallback.allow_truncated = false;
  StatusOr<storage::ServedQuery> shed = storage::ServeQueryResilient(
      store, "alice", relation, query, &cache, no_fallback);
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status().ToString();

  // And with the stale rung allowed, the same full house serves the
  // cached answer instead — the ladder in one assertion.
  storage::ServeOptions with_stale;
  with_stale.admission = &full_house;
  StatusOr<storage::ServedQuery> stale = storage::ServeQueryResilient(
      store, "alice", relation, query, &cache, with_stale);
  ASSERT_OK(stale.status());
  EXPECT_EQ(stale->provenance.via, storage::ServedVia::kStale);
  EXPECT_EQ(stale->result.tuples, served->result.tuples);
}

TEST(ReadmeSnippetTest, ObservabilitySnippetWorksAsAdvertised) {
  // Query setup mirrors the quickstart's step 5.
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(60, 1);
  ASSERT_OK(poi.status());
  Profile profile(poi->env);
  StatusOr<CompositeDescriptor> cod = ParseCompositeDescriptor(
      *poi->env, "location = Plaka and temperature in {warm, hot}");
  ASSERT_OK(cod.status());
  StatusOr<ContextualPreference> pref = ContextualPreference::Create(
      std::move(*cod),
      {"name", db::CompareOp::kEq, db::Value("Acropolis")}, 0.8);
  ASSERT_OK(pref.status());
  ASSERT_OK(profile.Insert(std::move(*pref)));
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  ASSERT_OK(tree.status());
  TreeResolver resolver(&*tree);
  ContextualQuery q;
  StatusOr<CompositeDescriptor> qcod = ParseCompositeDescriptor(
      *poi->env, "location = Plaka and temperature = hot");
  ASSERT_OK(qcod.status());
  q.context = ExtendedDescriptor::FromComposite(std::move(*qcod));
  QueryOptions options;
  options.top_k = 20;

  // The README snippet, with the flag restored afterward so other
  // tests keep the process-wide default.
  const bool prev_timing = MetricsRegistry::TimingEnabled();
  MetricsRegistry::SetTimingEnabled(true);   // opt into latency clocks
  TraceRecorder recorder(/*capacity=*/4096);
  recorder.Install();

  StatusOr<QueryResult> result = RankCS(poi->relation, q, resolver, options);

  recorder.Uninstall();
  MetricsRegistry::SetTimingEnabled(prev_timing);
  ASSERT_OK(result.status());

  // The rendered trace shows the spans the README's comment promises,
  // with rank_cs.state indented under rank_cs.
  std::string trace = ExplainTrace(recorder.Events());
  EXPECT_EQ(trace.rfind("rank_cs", 0), 0u) << trace;
  EXPECT_NE(trace.find("\n  rank_cs.state"), std::string::npos) << trace;
  EXPECT_NE(trace.find("resolve"), std::string::npos) << trace;
  EXPECT_NE(trace.find("scored="), std::string::npos) << trace;

  std::string prom = MetricsRegistry::Global().PrometheusText();
  std::string json = MetricsRegistry::Global().Json();
  EXPECT_NE(prom.find("ctxpref_rank_cs_queries_total"), std::string::npos);
  EXPECT_NE(prom.find("ctxpref_rank_cs_latency_ns_bucket"), std::string::npos);
  EXPECT_NE(json.find("\"ctxpref_rank_cs_latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
}

// The README "Static analysis" snippet, verbatim: an annotated,
// ranked mutex guarding two counters.
class HitCounter {
 public:
  // EXCLUDES documents (and Clang enforces) "call without mu_ held".
  void Record(bool hit) EXCLUDES(mu_) {
    ctxpref::util::MutexLock lock(mu_);
    ++lookups_;
    if (hit) ++hits_;
  }
  double HitRate() const EXCLUDES(mu_) {
    ctxpref::util::MutexLock lock(mu_);
    return lookups_ == 0 ? 0.0 : static_cast<double>(hits_) / lookups_;
  }

 private:
  // Ranked: acquiring this while holding any same-or-higher-ranked
  // lock aborts in debug builds. Unannotated access to the fields
  // below is a compile error under -Wthread-safety.
  mutable ctxpref::util::Mutex mu_{
      ctxpref::util::LockRank::kCacheShard, "HitCounter.mu"};
  uint64_t lookups_ GUARDED_BY(mu_) = 0;
  uint64_t hits_ GUARDED_BY(mu_) = 0;
};

TEST(ReadmeSnippetTest, StaticAnalysisSnippetWorksAsAdvertised) {
  HitCounter counter;
  counter.Record(true);
  counter.Record(false);
  EXPECT_DOUBLE_EQ(counter.HitRate(), 0.5);
}

TEST(ReadmeSnippetTest, ScenarioHarnessSnippetWorksAsAdvertised) {
  // The README loads scenarios/cache_heavy.cfg; tests run from the
  // build tree, so write a scaled-down equivalent (same shape: pure
  // cache-friendly query stream, hits modeled cheaper) to disk first.
  const std::string path = ::ctxpref::testing::TestTempPath(".cfg");
  {
    std::ofstream out(path);
    out << "name = readme_cache_heavy\n"
           "users = 2\n"
           "pois = 120\n"
           "profile_size = 20\n"
           "ops = 300\n"
           "exact_fraction = 1.0\n"
           "states_per_query = 1\n"
           "update_rate = 0.0\n"
           "top_k = 5\n"
           "service_micros = 1000\n"
           "cache_hit_service_micros = 100\n"
           "seed = 11\n";
  }

  // --- the README snippet, ASSERTs in place of assert ---
  StatusOr<harness::ScenarioConfig> cfg = harness::LoadScenarioConfig(path);
  ASSERT_OK(cfg.status());  // Typos, bad enums, bad rates all reject.

  harness::WorkloadRunner runner(*cfg);
  StatusOr<harness::ScenarioResult> on = runner.Run("cache_on");
  ASSERT_OK(on.status());

  cfg->ablation.cache = false;         // Same workload, cache ablated.
  StatusOr<harness::ScenarioResult> off =
      harness::WorkloadRunner(*cfg).Run("cache_off");
  ASSERT_OK(off.status());

  // The cache must be invisible in the answers (CRC over every served
  // tuple) and visible in the deterministic virtual cost.
  EXPECT_EQ(on->result_crc, off->result_crc);
  EXPECT_LT(on->virtual_micros, off->virtual_micros);
  // --- end snippet ---
  std::remove(path.c_str());

  // And the rejection the snippet's comment promises:
  EXPECT_FALSE(harness::ParseScenarioConfig("uzers = 2\n").ok());
}

}  // namespace
}  // namespace ctxpref

#include "harness/workload_runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "context/descriptor.h"
#include "context/resilient_source.h"
#include "context/source.h"
#include "context/state.h"
#include "preference/contextual_query.h"
#include "preference/ordering.h"
#include "preference/preference.h"
#include "preference/profile.h"
#include "preference/query_cache.h"
#include "preference/replicated_query_cache.h"
#include "storage/admission.h"
#include "storage/profile_store.h"
#include "storage/serving.h"
#include "util/clock.h"
#include "util/crc32.h"
#include "util/deadline.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/poi_dataset.h"
#include "workload/query_generator.h"

namespace ctxpref::harness {

namespace {

// Seed mixers, so the profile/chaos/workload streams never collide.
constexpr uint64_t kProfileSeedMix = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kMigrationSeedMix = 0xda3e39cb94b95bdbull;
constexpr uint64_t kChaosSeedOffset = 17;

// Build with +=, not operator+ on a literal (GCC 12 -Wrestrict misfire,
// see bench_serving.cc).
std::string UserName(size_t u) {
  std::string name = "user";
  name += std::to_string(u);
  return name;
}

/// Scores on the paper's 0.05 grid, never 0.
double GridScore(Rng& rng) {
  return 0.05 * static_cast<double>(1 + rng.Uniform(20));
}

StatusOr<CompositeDescriptor> DescriptorForState(const ContextEnvironment& env,
                                                 const ContextState& state) {
  std::vector<ParameterDescriptor> parts;
  for (size_t i = 0; i < env.size(); ++i) {
    if (state.value(i) == env.parameter(i).hierarchy().AllValue()) continue;
    StatusOr<ParameterDescriptor> pd =
        ParameterDescriptor::Equals(env, i, state.value(i));
    if (!pd.ok()) return pd.status();
    parts.push_back(std::move(*pd));
  }
  if (parts.empty()) return CompositeDescriptor();
  return CompositeDescriptor::Create(env, std::move(parts));
}

/// Generates one user profile over the POI (Fig. 2) environment per the
/// scenario's shape knobs: `profile_size` preferences whose context
/// values are drawn uniform or zipf-skewed over each parameter's
/// detailed domain (§5.2), lifted to an upper level with
/// `lift_probability`, with clauses over the POI `type` / `open_air`
/// attributes and scores on the 0.05 grid. Conflicting or duplicate
/// draws are redrawn (bounded retries), so the result satisfies Def. 7.
StatusOr<Profile> BuildUserProfile(const EnvironmentPtr& env_ptr,
                                   const ScenarioConfig& cfg, uint64_t seed) {
  const ContextEnvironment& env = *env_ptr;
  Rng rng(seed);
  Profile profile(env_ptr);
  std::vector<ZipfDistribution> zipf;
  if (cfg.profile_skew == SkewKind::kZipf) {
    zipf.reserve(env.size());
    for (size_t i = 0; i < env.size(); ++i) {
      zipf.emplace_back(env.parameter(i).hierarchy().level_size(0),
                        cfg.profile_zipf_a);
    }
  }
  const std::vector<std::string>& types = workload::PoiTypes();
  const size_t budget = 50 * cfg.profile_size + 100;
  for (size_t attempt = 0;
       profile.size() < cfg.profile_size && attempt < budget; ++attempt) {
    std::vector<ValueRef> values;
    values.reserve(env.size());
    bool contextual = false;
    for (size_t i = 0; i < env.size(); ++i) {
      const Hierarchy& h = env.parameter(i).hierarchy();
      const ValueId detailed =
          cfg.profile_skew == SkewKind::kZipf
              ? static_cast<ValueId>(zipf[i].Sample(rng))
              : static_cast<ValueId>(rng.Uniform(h.level_size(0)));
      ValueRef v{0, detailed};
      if (h.num_levels() > 1 && rng.Bernoulli(cfg.lift_probability)) {
        v = h.Anc(v,
                  static_cast<LevelIndex>(1 + rng.Uniform(h.num_levels() - 1)));
      }
      if (v != h.AllValue()) contextual = true;
      values.push_back(v);
    }
    if (!contextual) continue;  // (all, ..., all): redraw.
    StatusOr<CompositeDescriptor> cod =
        DescriptorForState(env, ContextState(std::move(values)));
    if (!cod.ok()) return cod.status();
    const double score = GridScore(rng);
    StatusOr<ContextualPreference> pref =
        rng.Bernoulli(0.2)
            ? ContextualPreference::Create(
                  std::move(*cod),
                  AttributeClause{"open_air", db::CompareOp::kEq,
                                  db::Value(rng.Bernoulli(0.5))},
                  score)
            : ContextualPreference::Create(
                  std::move(*cod),
                  AttributeClause{"type", db::CompareOp::kEq,
                                  db::Value(types[rng.Uniform(types.size())])},
                  score);
    if (!pref.ok()) return pref.status();
    Status st = profile.Insert(std::move(*pref));
    if (!st.ok() && !st.IsAlreadyExists() && !st.IsConflict()) return st;
  }
  if (profile.empty()) {
    return Status::InvalidArgument(
        "profile generation drew only conflicting preferences; "
        "loosen the scenario's profile knobs");
  }
  return profile;
}

/// Top-k row ids of `result`, in rank order.
std::vector<db::RowId> TopIds(const QueryResult& result, size_t k) {
  std::vector<db::RowId> ids;
  ids.reserve(std::min(k, result.tuples.size()));
  for (size_t i = 0; i < result.tuples.size() && i < k; ++i) {
    ids.push_back(result.tuples[i].row_id);
  }
  return ids;
}

double Overlap(const std::vector<db::RowId>& truth,
               const std::vector<db::RowId>& got) {
  if (truth.empty()) return 0.0;
  size_t hits = 0;
  for (const db::RowId r : got) {
    if (std::find(truth.begin(), truth.end(), r) != truth.end()) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

uint64_t Percentile(std::vector<uint64_t> sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted.size())));
  return sorted[idx];
}

std::string U64(uint64_t v) { return std::to_string(v); }

}  // namespace

std::string ScenarioResult::CsvHeader() {
  return "scenario,variant,ops,queries,updates,migrations,fresh,stale,"
         "truncated,shed,deadline_hits,good_ops,cache_hits,cache_misses,"
         "degraded_params,rank_agreement_ppm,scored_queries,result_crc,"
         "virtual_micros";
}

std::string ScenarioResult::CsvRow() const {
  std::string row;
  row += scenario;
  row += ',';
  row += variant;
  for (const uint64_t v :
       {ops, queries, updates, migrations, served_fresh, served_stale,
        served_truncated, served_shed, deadline_hits, good_ops, cache_hits,
        cache_misses, degraded_params, rank_agreement_ppm, scored_queries,
        static_cast<uint64_t>(result_crc),
        static_cast<uint64_t>(virtual_micros)}) {
    row += ',';
    row += U64(v);
  }
  return row;
}

std::string ScenarioResult::ToJson() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"scenario\": \"%s\", \"variant\": \"%s\", \"ops\": %llu, "
      "\"queries\": %llu, \"updates\": %llu, \"migrations\": %llu, "
      "\"fresh\": %llu, \"stale\": %llu, \"truncated\": %llu, "
      "\"shed\": %llu, \"deadline_hits\": %llu, \"good_ops\": %llu, "
      "\"cache_hits\": %llu, \"cache_misses\": %llu, "
      "\"degraded_params\": %llu, \"rank_agreement_ppm\": %llu, "
      "\"scored_queries\": %llu, \"result_crc\": %lu, "
      "\"virtual_micros\": %lld, \"wall_seconds\": %.3f, "
      "\"wall_ns_per_op\": %.1f, \"p50_ns\": %.0f, \"p99_ns\": %.0f, "
      "\"virtual_ns_per_op\": %.1f, \"virtual_ns_per_good_op\": %.1f}",
      scenario.c_str(), variant.c_str(),
      static_cast<unsigned long long>(ops),
      static_cast<unsigned long long>(queries),
      static_cast<unsigned long long>(updates),
      static_cast<unsigned long long>(migrations),
      static_cast<unsigned long long>(served_fresh),
      static_cast<unsigned long long>(served_stale),
      static_cast<unsigned long long>(served_truncated),
      static_cast<unsigned long long>(served_shed),
      static_cast<unsigned long long>(deadline_hits),
      static_cast<unsigned long long>(good_ops),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses),
      static_cast<unsigned long long>(degraded_params),
      static_cast<unsigned long long>(rank_agreement_ppm),
      static_cast<unsigned long long>(scored_queries),
      static_cast<unsigned long>(result_crc),
      static_cast<long long>(virtual_micros), wall_seconds, wall_ns_per_op,
      p50_ns, p99_ns, virtual_ns_per_op, virtual_ns_per_good_op);
  return buf;
}

StatusOr<ScenarioResult> WorkloadRunner::Run(std::string_view variant) const {
  const ScenarioConfig& cfg = cfg_;
  ScenarioResult res;
  res.scenario = cfg.name;
  res.variant = std::string(variant);

  StatusOr<workload::PoiDatabase> poi =
      workload::MakePoiDatabase(cfg.pois, cfg.seed);
  if (!poi.ok()) return poi.status();
  const ContextEnvironment& env = *poi->env;

  storage::ProfileStore store(poi->env);
  for (size_t u = 0; u < cfg.users; ++u) {
    StatusOr<Profile> profile =
        BuildUserProfile(poi->env, cfg, cfg.seed ^ (kProfileSeedMix * (u + 1)));
    if (!profile.ok()) return profile.status();
    Status st = store.CreateUser(UserName(u), std::move(*profile));
    if (!st.ok()) return st;
  }

  // cache=off: serve uncached. Otherwise the cache is a
  // ReplicatedQueryCache of `coherence_replicas` retain-stale trees (one
  // replica is the single shared cache): superseded entries stay for
  // the resilient ladder's stale rung, exact version keys keep fresh
  // hits correct, and in-place Put plus LRU reclaim memory — no
  // invalidation hook on the store. Queries round-robin across the
  // replicas deterministically, so the CSV contract holds.
  std::optional<ReplicatedQueryCache> replicas;
  if (cfg.ablation.cache) {
    ReplicatedQueryCache::Options ropt;
    ropt.num_replicas = cfg.coherence_replicas;
    ropt.capacity_per_replica = cfg.cache_capacity;
    replicas.emplace(poi->env, Ordering::Identity(env.size()), ropt);
  }

  // parallel=off: single-threaded evaluation, no shared pool.
  const bool parallel = cfg.ablation.parallel && cfg.threads > 1;
  std::optional<ThreadPool> pool;
  if (parallel) pool.emplace(cfg.threads);

  storage::AdmissionController admission(
      storage::AdmissionPolicy{.max_in_flight = cfg.max_in_flight});

  QueryOptions base;
  base.resolution.distance = cfg.distance;
  // tie_break=off: pre-erratum Jaccard tie handling.
  base.resolution.jaccard_tie_break = cfg.ablation.tie_break;
  base.combine = db::CombinePolicy::kMax;  // Stale rung needs kMax/kMin.
  base.top_k = cfg.top_k;
  base.pool = parallel ? &*pool : nullptr;

  // Sensor rig (bench_availability's failing-prefix scripting). With
  // resilience=off a failed read degrades the parameter to `all`
  // directly — no retries, breaker, or stale/lift ladder.
  const bool sensors =
      cfg.sensor_dropout > 0.0 || cfg.outage_fraction > 0.0;
  FakeClock acq_clock;
  SourcePolicy policy;
  policy.max_attempts = 2;
  policy.failure_threshold = 6;
  policy.open_cooldown_micros = 3'000'000;
  policy.stale_ttl_micros = 2'000'000;
  policy.lift_window_micros = 2'000'000;
  std::optional<CurrentContext> current;
  std::vector<FaultInjectingSource*> faults;
  if (sensors && cfg.ablation.resilience) {
    current.emplace(poi->env);
    for (size_t pi = 0; pi < env.size(); ++pi) {
      auto fault = std::make_unique<FaultInjectingSource>(
          pi, env.parameter(pi).hierarchy().AllValue(), &acq_clock);
      faults.push_back(fault.get());
      Status st = current->AddSource(std::make_unique<ResilientSource>(
          env, std::move(fault), policy, &acq_clock,
          cfg.seed ^ (1000 * pi + 7)));
      if (!st.ok()) return st;
    }
  }

  // The virtual-time queue model: requests arrive open-loop at
  // `arrival_rate_qps` (or back-to-back when 0), a full evaluation
  // occupies the server for `service_micros` of virtual time and a
  // degraded (ladder) serve for `degraded_service_micros`. Deadlines
  // live on the same FakeClock, so overload behavior — backlog, door
  // shedding, goodput collapse — is bit-for-bit reproducible.
  FakeClock serve_clock(1'000'000);
  const int64_t t0 = serve_clock.NowMicros();
  int64_t server_free_at = t0;

  // Chaos draws come from their own stream so toggling `resilience`
  // (which changes how many draws each failure consumes) cannot shift
  // the workload stream.
  Rng rng(cfg.seed);
  Rng chaos(cfg.seed + kChaosSeedOffset);

  std::optional<ZipfDistribution> user_zipf;
  if (cfg.user_zipf_a > 0.0 && cfg.users > 1) {
    user_zipf.emplace(cfg.users, cfg.user_zipf_a);
  }

  auto in_window = [ops = cfg.ops](size_t op, double fraction) {
    if (fraction <= 0.0) return false;
    const double pos =
        (static_cast<double>(op) + 0.5) / static_cast<double>(ops);
    return pos >= 0.5 - fraction / 2 && pos < 0.5 + fraction / 2;
  };

  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& m_ops =
      reg.GetCounter("ctxpref_scenario_ops_total", "Scenario harness ops");
  Counter& m_fresh = reg.GetCounter("ctxpref_scenario_served_fresh_total",
                                    "Scenario answers served fresh");
  Counter& m_degraded =
      reg.GetCounter("ctxpref_scenario_served_degraded_total",
                     "Scenario answers served stale/truncated/shed");
  Counter& m_good = reg.GetCounter("ctxpref_scenario_good_ops_total",
                                   "Fresh scenario answers within deadline");
  LatencyHistogram& m_lat = reg.GetHistogram(
      "ctxpref_scenario_op_latency_ns", "Scenario per-op wall latency");

  std::vector<uint64_t> latencies;
  latencies.reserve(cfg.ops);
  uint32_t crc = 0;
  auto fold = [&crc](const QueryResult& result, storage::ServedVia via) {
    char buf[17];
    for (const db::ScoredTuple& t : result.tuples) {
      uint64_t row = t.row_id;
      uint64_t bits = 0;
      std::memcpy(&bits, &t.score, sizeof(bits));
      std::memcpy(buf, &row, sizeof(row));
      std::memcpy(buf + 8, &bits, sizeof(bits));
      buf[16] = static_cast<char>(via);
      crc = Crc32(std::string_view(buf, sizeof(buf)), crc);
    }
  };
  double agreement_sum = 0.0;

  const uint64_t wall_start = MonotonicNanos();
  for (size_t op = 0; op < cfg.ops; ++op) {
    const bool flash = in_window(op, cfg.flash_crowd_fraction);
    const bool outage = in_window(op, cfg.outage_fraction);
    const bool migration = in_window(op, cfg.migration_fraction);
    ++res.ops;
    m_ops.Increment();

    // Profile-migration wave: the op also republishes one user's
    // profile wholesale (round-robin), modeling a re-onboarding sweep.
    if (migration) {
      StatusOr<Profile> fresh = BuildUserProfile(
          poi->env, cfg, cfg.seed ^ (kMigrationSeedMix * (op + 1)));
      if (!fresh.ok()) return fresh.status();
      Status st =
          store.PublishProfile(UserName(op % cfg.users), std::move(*fresh));
      if (!st.ok()) return st;
      ++res.migrations;
    }

    const size_t u = flash ? 0
                     : user_zipf.has_value()
                         ? static_cast<size_t>(user_zipf->Sample(rng))
                         : static_cast<size_t>(rng.Uniform(cfg.users));
    const std::string uid = UserName(u);

    if (cfg.update_rate > 0.0 && rng.Bernoulli(cfg.update_rate)) {
      // Profile update (churn). Draw the edit up front so cow=on and
      // cow=off consume identical randomness.
      ++res.updates;
      StatusOr<const Profile*> pp = store.GetProfile(uid);
      if (!pp.ok()) return pp.status();
      const size_t psize = (*pp)->size();
      if (psize == 0) continue;
      const size_t idx = rng.Uniform(psize);
      const double score = GridScore(rng);
      if (cfg.ablation.cow) {
        Status st = store.UpdateUser(uid, [idx, score](Profile& p) {
          if (idx < p.size()) {
            // A conflicting rescore keeps the old score; the publish
            // still happens (same as the cow=off arm).
            (void)p.UpdateScore(idx, score);
          }
          return Status::OK();
        });
        if (!st.ok()) return st;
      } else {
        // cow=off: the pre-COW write path — copy the whole profile,
        // publish it wholesale, and clobber the entire query cache
        // instead of relying on per-user version-tagged invalidation.
        Profile copy = **pp;
        if (idx < copy.size()) (void)copy.UpdateScore(idx, score);
        Status st = store.PublishProfile(uid, std::move(copy));
        if (!st.ok()) return st;
        if (replicas.has_value()) {
          for (size_t r = 0; r < replicas->num_replicas(); ++r) {
            replicas->replica(r).InvalidateAll();
          }
        }
      }
      continue;  // Updates ride the writer, not the serving queue.
    }

    // ---- Query op ---------------------------------------------------
    ++res.queries;
    StatusOr<const Profile*> pp = store.GetProfile(uid);
    if (!pp.ok()) return pp.status();

    std::vector<ContextState> truth_states;
    truth_states.reserve(cfg.states_per_query);
    for (size_t s = 0; s < cfg.states_per_query; ++s) {
      const bool exact = !(*pp)->empty() && rng.Bernoulli(cfg.exact_fraction);
      truth_states.push_back(
          exact ? workload::ExactQuery(**pp, rng)
                : workload::RandomQuery(env, rng, cfg.lift_probability));
    }

    std::vector<ContextState> acquired = truth_states;
    if (sensors) {
      const double rate = outage ? 1.0 : cfg.sensor_dropout;
      for (ContextState& state : acquired) {
        if (cfg.ablation.resilience) {
          for (size_t pi = 0; pi < faults.size(); ++pi) {
            faults[pi]->set_value(state.value(pi));
            uint32_t fails = 0;
            while (fails < policy.max_attempts &&
                   chaos.NextDouble() < rate) {
              ++fails;
            }
            faults[pi]->FailNext(fails);
          }
          acq_clock.Advance(1'000'000);  // One second between readings.
          SnapshotReport report = current->SnapshotWithReport();
          res.degraded_params += report.degraded_count();
          state = report.state;
        } else {
          for (size_t pi = 0; pi < env.size(); ++pi) {
            if (chaos.NextDouble() < rate) {
              state.set_value(pi, env.parameter(pi).hierarchy().AllValue());
              ++res.degraded_params;
            }
          }
        }
      }
    }

    std::vector<CompositeDescriptor> disjuncts;
    disjuncts.reserve(acquired.size());
    for (const ContextState& s : acquired) {
      StatusOr<CompositeDescriptor> cod = DescriptorForState(env, s);
      if (!cod.ok()) return cod.status();
      disjuncts.push_back(std::move(*cod));
    }
    ContextualQuery cq;
    cq.context = ExtendedDescriptor(std::move(disjuncts));

    // Virtual-time bookkeeping: arrival, queueing, the door deadline.
    const int64_t arrival =
        cfg.arrival_rate_qps > 0.0
            ? t0 + static_cast<int64_t>(
                       static_cast<double>(res.queries - 1) * 1e6 /
                       cfg.arrival_rate_qps)
            : std::max(server_free_at, serve_clock.NowMicros());
    const int64_t start_service = std::max(arrival, server_free_at);
    if (start_service > serve_clock.NowMicros()) {
      serve_clock.Advance(start_service - serve_clock.NowMicros());
    }
    const int64_t deadline_at =
        cfg.deadline_micros > 0 ? arrival + cfg.deadline_micros : 0;
    // Deadline-aware admission: a request whose remaining budget cannot
    // cover a full evaluation is doomed — with shedding on it is pushed
    // down the ladder at the door (expired deadline) instead of
    // grinding through a full evaluation nobody will wait for.
    const bool doomed =
        deadline_at > 0 && start_service + cfg.service_micros > deadline_at;

    // Queries round-robin across replicas, indexed on the query count
    // instead of the thread so the run stays deterministic.
    ContextQueryTree* qcache = nullptr;
    if (replicas.has_value()) {
      qcache = &replicas->replica((res.queries - 1) %
                                  replicas->num_replicas());
    }

    // Cache-stat deltas across this serve, for the hit-aware virtual
    // cost below. Per-query states are distinct, so the counts are
    // deterministic even with a worker pool.
    const CacheStats cache_before =
        qcache != nullptr ? qcache->Stats() : CacheStats{};

    const uint64_t q_start = MonotonicNanos();
    storage::ServedVia via = storage::ServedVia::kShed;
    std::optional<storage::ServedQuery> held;
    if (cfg.ablation.shed) {
      storage::ServeOptions so;
      so.query = base;
      if (deadline_at > 0) {
        so.query.deadline = util::Deadline::AtMicros(
            doomed ? start_service : deadline_at, &serve_clock);
      }
      so.admission = &admission;
      so.truncated_top_k = cfg.top_k;
      StatusOr<storage::ServedQuery> served = storage::ServeQueryResilient(
          store, uid, poi->relation, cq, qcache, so);
      if (served.ok()) {
        via = served->provenance.via;
        if (served->provenance.deadline_hit) ++res.deadline_hits;
        held = std::move(*served);
      } else if (served.status().IsUnavailable()) {
        via = storage::ServedVia::kShed;  // Fell off the ladder.
        // The Unavailable status carries no provenance, so a request
        // the deadline pushed off the whole ladder (doomed at the door,
        // no stale entry, truncated rung aborted) would silently skip
        // the deadline_hits column while the registry counter ticks —
        // recover the fact from the deadline itself, which is still
        // expired on the unchanged virtual clock.
        if (so.query.deadline.Expired()) ++res.deadline_hits;
      } else {
        return served.status();
      }
    } else {
      // shed=off: no admission, no deadline — every request grinds
      // through a full evaluation even when its deadline has passed.
      StatusOr<storage::ServedQuery> served =
          storage::ServeQuery(store, uid, poi->relation, cq, qcache, base);
      if (!served.ok()) return served.status();
      via = storage::ServedVia::kFresh;
      held = std::move(*served);
    }
    const QueryResult* answer =
        held.has_value() ? &held->result : nullptr;
    const uint64_t q_ns = MonotonicNanos() - q_start;
    latencies.push_back(q_ns);
    if (MetricsRegistry::TimingEnabled()) m_lat.Record(q_ns);
    if (answer != nullptr) fold(*answer, via);

    // Virtual cost of this serve. A fresh answer costs a full
    // evaluation, except that states served out of the query cache are
    // charged `cache_hit_service_micros` instead (interpolated by hit
    // fraction) — so the cache ablation shows up in virtual time, not
    // just in the (noisy, advisory) wall clock.
    int64_t cost = cfg.degraded_service_micros;
    if (via == storage::ServedVia::kFresh) {
      cost = cfg.service_micros;
      if (qcache != nullptr && cfg.cache_hit_service_micros > 0) {
        const CacheStats after = qcache->Stats();
        const uint64_t lookups = after.lookups - cache_before.lookups;
        const uint64_t hits = after.hits - cache_before.hits;
        if (lookups > 0) {
          cost = static_cast<int64_t>(
              (hits * static_cast<uint64_t>(cfg.cache_hit_service_micros) +
               (lookups - hits) *
                   static_cast<uint64_t>(cfg.service_micros)) /
              lookups);
        }
      }
    }
    server_free_at = start_service + cost;
    if (server_free_at > serve_clock.NowMicros()) {
      serve_clock.Advance(server_free_at - serve_clock.NowMicros());
    }
    const bool on_time = deadline_at == 0 || server_free_at <= deadline_at;
    switch (via) {
      case storage::ServedVia::kFresh:
        ++res.served_fresh;
        m_fresh.Increment();
        break;
      case storage::ServedVia::kStale:
        ++res.served_stale;
        m_degraded.Increment();
        break;
      case storage::ServedVia::kTruncated:
        ++res.served_truncated;
        m_degraded.Increment();
        break;
      case storage::ServedVia::kShed:
        ++res.served_shed;
        m_degraded.Increment();
        break;
    }
    if (via == storage::ServedVia::kFresh && on_time) {
      ++res.good_ops;
      m_good.Increment();
    }

    // Rank agreement vs the true (undegraded) context, bench_
    // availability's headline number — scored only on sensor scenarios.
    if (sensors) {
      StatusOr<storage::SnapshotPtr> snap = store.GetSnapshot(uid);
      if (!snap.ok()) return snap.status();
      std::vector<CompositeDescriptor> truth_parts;
      truth_parts.reserve(truth_states.size());
      for (const ContextState& s : truth_states) {
        StatusOr<CompositeDescriptor> cod = DescriptorForState(env, s);
        if (!cod.ok()) return cod.status();
        truth_parts.push_back(std::move(*cod));
      }
      ContextualQuery truth_q;
      truth_q.context = ExtendedDescriptor(std::move(truth_parts));
      // Uncached: the truth probe must not touch the serving cache.
      StatusOr<QueryResult> truth = storage::ServeQuery(
          **snap, poi->relation, truth_q, /*cache=*/nullptr, base);
      if (!truth.ok()) return truth.status();
      const std::vector<db::RowId> want = TopIds(*truth, cfg.top_k);
      if (!want.empty()) {
        agreement_sum += Overlap(
            want, answer != nullptr ? TopIds(*answer, cfg.top_k)
                                    : std::vector<db::RowId>());
        ++res.scored_queries;
      }
    }
  }
  const uint64_t wall_ns = MonotonicNanos() - wall_start;

  res.virtual_micros = serve_clock.NowMicros() - t0;
  if (replicas.has_value()) {
    const CacheStats stats = replicas->Stats();
    // Every lookup is exactly one hit or one miss, in every replica.
    if (stats.lookups != stats.hits + stats.misses) {
      return Status::Internal(
          "cache stats broke lookups == hits + misses: " +
          std::to_string(stats.lookups) + " != " +
          std::to_string(stats.hits) + " + " + std::to_string(stats.misses));
    }
    res.cache_hits = stats.hits;
    res.cache_misses = stats.misses;
  }
  if (res.scored_queries > 0) {
    res.rank_agreement_ppm = static_cast<uint64_t>(std::llround(
        1e6 * agreement_sum / static_cast<double>(res.scored_queries)));
  }
  res.result_crc = crc;

  res.wall_seconds = static_cast<double>(wall_ns) / 1e9;
  res.wall_ns_per_op =
      res.ops > 0 ? static_cast<double>(wall_ns) / static_cast<double>(res.ops)
                  : 0.0;
  std::sort(latencies.begin(), latencies.end());
  res.p50_ns = static_cast<double>(Percentile(latencies, 0.50));
  res.p99_ns = static_cast<double>(Percentile(latencies, 0.99));
  res.virtual_ns_per_op =
      1000.0 * static_cast<double>(res.virtual_micros) /
      static_cast<double>(std::max<uint64_t>(1, res.ops));
  res.virtual_ns_per_good_op =
      1000.0 * static_cast<double>(res.virtual_micros) /
      static_cast<double>(std::max<uint64_t>(1, res.good_ops));
  return res;
}

}  // namespace ctxpref::harness

// Workload specs and seeded input generation: the POI relation, one
// profile per user over the paper's Fig. 2 environment, and the request
// stream the clients cycle through.

#include <cmath>

#include "bench.h"
#include "context/descriptor.h"
#include "preference/preference.h"
#include "util/crc32.h"
#include "util/random.h"
#include "workload/poi_dataset.h"
#include "workload/query_generator.h"

namespace perfbench {

using ctxpref::CompositeDescriptor;
using ctxpref::ContextState;
using ctxpref::Rng;
using ctxpref::Status;
using ctxpref::StatusOr;

namespace {

// Seed mixers, so the profile, request and relation streams never share
// a generator state.
constexpr uint64_t kProfileMix = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kRequestMix = 0xc2b2ae3d27d4eb4full;

/// Probability a profile's context value is lifted to an upper level:
/// preferences at mixed granularity, so resolution has covers to pick.
constexpr double kProfileLift = 0.3;

/// Running CRC-32 over length-delimited fields.
class Fingerprint {
 public:
  void Add(std::string_view field) {
    crc_ = ctxpref::Crc32(field, crc_);
    crc_ = ctxpref::Crc32("\x1f", crc_);
  }
  uint32_t value() const { return crc_; }

 private:
  uint32_t crc_ = 0;
};

/// A conflict-free profile of (up to) `size` preferences: each draws one
/// context value per parameter (uniform or zipf over the detailed
/// domain, then lifted), a clause on the POI `type` or `open_air`
/// attribute, and a score on the paper's 0.05 grid.
StatusOr<ctxpref::Profile> MakeProfile(const ctxpref::EnvironmentPtr& env_ptr,
                                       size_t size, double zipf_a, Rng& rng) {
  const ctxpref::ContextEnvironment& env = *env_ptr;
  ctxpref::Profile profile(env_ptr);
  std::vector<ctxpref::ZipfDistribution> zipf;
  for (size_t i = 0; i < env.size(); ++i) {
    zipf.emplace_back(env.parameter(i).hierarchy().level_size(0), zipf_a);
  }
  const std::vector<std::string>& types = ctxpref::workload::PoiTypes();
  const size_t budget = 50 * size + 100;
  for (size_t attempt = 0; profile.size() < size && attempt < budget;
       ++attempt) {
    std::vector<ctxpref::ValueRef> values;
    bool contextual = false;
    for (size_t i = 0; i < env.size(); ++i) {
      const ctxpref::Hierarchy& h = env.parameter(i).hierarchy();
      ctxpref::ValueRef v{0, static_cast<ctxpref::ValueId>(zipf[i].Sample(rng))};
      if (h.num_levels() > 1 && rng.Bernoulli(kProfileLift)) {
        v = h.Anc(v, static_cast<ctxpref::LevelIndex>(
                         1 + rng.Uniform(h.num_levels() - 1)));
      }
      if (v != h.AllValue()) contextual = true;
      values.push_back(v);
    }
    if (!contextual) continue;
    StatusOr<CompositeDescriptor> cod =
        CompositeDescriptor::ForState(env, ContextState(std::move(values)));
    if (!cod.ok()) return cod.status();
    const double score = 0.05 * static_cast<double>(1 + rng.Uniform(20));
    ctxpref::AttributeClause clause =
        rng.Bernoulli(0.2)
            ? ctxpref::AttributeClause{"open_air", ctxpref::db::CompareOp::kEq,
                                       ctxpref::db::Value(rng.Bernoulli(0.5))}
            : ctxpref::AttributeClause{
                  "type", ctxpref::db::CompareOp::kEq,
                  ctxpref::db::Value(types[rng.Uniform(types.size())])};
    StatusOr<ctxpref::ContextualPreference> pref =
        ctxpref::ContextualPreference::Create(std::move(*cod), clause, score);
    if (!pref.ok()) return pref.status();
    Status st = profile.Insert(std::move(*pref));
    if (!st.ok() && !st.IsAlreadyExists() && !st.IsConflict()) return st;
  }
  if (profile.empty()) {
    return Status::Internal("profile generation produced no preference");
  }
  return profile;
}

/// A restricting selection on the POI relation: a type or an open-air
/// condition.
StatusOr<ctxpref::db::Predicate> MakeSelection(const ctxpref::db::Schema& schema,
                                               Rng& rng) {
  const std::vector<std::string>& types = ctxpref::workload::PoiTypes();
  if (rng.Bernoulli(0.5)) {
    return ctxpref::db::Predicate::Create(
        schema, "type", ctxpref::db::CompareOp::kEq,
        ctxpref::db::Value(types[rng.Uniform(types.size())]));
  }
  return ctxpref::db::Predicate::Create(schema, "open_air",
                                        ctxpref::db::CompareOp::kEq,
                                        ctxpref::db::Value(rng.Bernoulli(0.5)));
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string>* names =
      new std::vector<std::string>{"hot_hits", "cold_explore", "churn_publish"};
  return *names;
}

StatusOr<WorkloadSpec> SpecFor(const std::string& name, bool tiny) {
  WorkloadSpec s;
  s.name = name;
  if (name == "hot_hits") {
    // Stored states only, one per query, no writes: after the warm-up
    // every state hits, so the hit path (probe, tuple copy, re-selection,
    // merge, trace copy) does the work. 2000 POIs make each cached list
    // long, which is what the hit path scales with. 256 users with
    // uniform context draws spread the heaviest lists, which set p99,
    // over many states, so p99 does not hinge on a few of them per seed.
    s.users = 256;
    s.pois = 2000;
    s.prefs_min = s.prefs_max = 40;
    s.requests = 65536;
    s.stored_state_share = 1.0;
    s.top_k = 10;
    s.clients = 3;
    s.warm_every_state = true;
    if (tiny) {
      s.users = 2;
      s.pois = 100;
      s.prefs_min = s.prefs_max = 10;
      s.requests = 256;
    }
  } else if (name == "cold_explore") {
    // The paper's §5.2 scale with zipf(1.5) context draws; mostly
    // unstored states at mixed levels, 1-4 states per query, half with
    // a selection, Jaccard distance so the tie-break runs. A small
    // bounded cache keeps the hit ratio low: resolution, predicate
    // compilation, selection and ranking do the work, and each state is
    // handed to a shared one-worker pool on the client's CPU, so the
    // handoff shows in util.pool_wait but the states do not run in
    // parallel: cross-CPU wake-ups of a parallel pool made the tail
    // follow the host's load rather than the program.
    s.users = 64;
    s.pois = 2000;
    s.prefs_min = 300;
    s.prefs_max = 3000;
    s.value_zipf_a = 1.5;
    s.requests = 16384;
    s.stored_state_share = 0.1;
    s.query_lift = 0.5;
    s.min_states = 1;
    s.max_states = 4;
    s.selection_share = 0.5;
    s.distance = ctxpref::DistanceKind::kJaccard;
    s.top_k = 10;
    s.clients = 1;
    s.pool = true;
    s.cache_capacity = 1024;
    if (tiny) {
      s.users = 4;
      s.pois = 100;
      s.prefs_min = 30;
      s.prefs_max = 120;
      s.requests = 256;
      s.cache_capacity = 64;
    }
  } else if (name == "churn_publish") {
    // A reader and an open-loop writer share the store and the cache:
    // rescoring edits at a fixed rate, a whole-profile republish every
    // 10th edit, and a deadline so the degradation ladder can act. At
    // 200 edits/s most reads still hit, so p50 sits inside the hit
    // population rather than on its boundary with the misses. One
    // reader, not two: with two, their contention on 8 us queries made
    // every query metric follow the host's load (throughput spread 0.17
    // over ten runs against 0.09 with one reader, run alternately).
    // 256 users spread the misses, which set p99, over many profiles:
    // over four seeds p99 ranged 16% with 64 users and 6% with 256.
    s.users = 256;
    s.pois = 300;
    s.prefs_min = s.prefs_max = 50;
    s.requests = 16384;
    s.stored_state_share = 0.8;
    s.top_k = 10;
    s.clients = 1;
    s.deadline_us = 50000;
    s.writer_rate_hz = 200.0;
    s.republish_every = 10;
    if (tiny) {
      s.users = 4;
      s.pois = 50;
      s.prefs_min = s.prefs_max = 20;
      s.requests = 256;
    }
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return s;
}

StatusOr<Inputs> GenerateInputs(const WorkloadSpec& spec, uint64_t seed) {
  StatusOr<ctxpref::workload::PoiDatabase> poi =
      ctxpref::workload::MakePoiDatabase(spec.pois, seed);
  if (!poi.ok()) return poi.status();
  Inputs in;
  in.env = poi->env;
  const ctxpref::ContextEnvironment& env = *in.env;
  const ctxpref::db::Relation& relation = poi->relation;
  Fingerprint fp;
  for (ctxpref::db::RowId r = 0; r < relation.size(); ++r) {
    std::string row;
    for (const ctxpref::db::Value& v : relation.row(r)) {
      row += v.ToString();
      row += '\x1f';
    }
    fp.Add(row);
  }

  for (size_t u = 0; u < spec.users; ++u) {
    Rng rng(seed ^ (kProfileMix * (u + 1)));
    // Sizes follow a fixed log-spaced ladder from prefs_min to prefs_max,
    // so the seed changes what the profiles hold, not how big they are.
    size_t size = spec.prefs_min;
    if (spec.prefs_max > spec.prefs_min && spec.users > 1) {
      const double lo = std::log(static_cast<double>(spec.prefs_min));
      const double hi = std::log(static_cast<double>(spec.prefs_max));
      const double f =
          static_cast<double>(u) / static_cast<double>(spec.users - 1);
      size = static_cast<size_t>(std::lround(std::exp(lo + f * (hi - lo))));
    }
    StatusOr<ctxpref::Profile> profile =
        MakeProfile(in.env, size, spec.value_zipf_a, rng);
    if (!profile.ok()) return profile.status();
    std::string id = "user";
    id += std::to_string(u);
    fp.Add(id);
    fp.Add(profile->ToText());
    in.user_ids.push_back(std::move(id));
    in.profiles.push_back(std::move(*profile));
  }

  Rng rng(seed ^ kRequestMix);
  in.requests.reserve(spec.requests);
  for (size_t i = 0; i < spec.requests; ++i) {
    Request req;
    req.user = static_cast<uint32_t>(rng.Uniform(spec.users));
    const size_t states =
        spec.min_states + rng.Uniform(spec.max_states - spec.min_states + 1);
    for (size_t k = 0; k < states; ++k) {
      const ContextState state =
          rng.Bernoulli(spec.stored_state_share)
              ? ctxpref::workload::ExactQuery(in.profiles[req.user], rng)
              : ctxpref::workload::RandomQuery(env, rng, spec.query_lift);
      StatusOr<CompositeDescriptor> cod =
          CompositeDescriptor::ForState(env, state);
      if (!cod.ok()) return cod.status();
      req.query.context.AddDisjunct(std::move(*cod));
    }
    if (rng.Bernoulli(spec.selection_share)) {
      StatusOr<ctxpref::db::Predicate> sel =
          MakeSelection(relation.schema(), rng);
      if (!sel.ok()) return sel.status();
      req.query.selections.push_back(std::move(*sel));
    }
    std::string text = std::to_string(req.user);
    text += ':';
    text += req.query.context.ToString(env);
    for (const ctxpref::db::Predicate& p : req.query.selections) {
      text += " & ";
      text += p.ToString(relation.schema());
    }
    fp.Add(text);
    in.requests.push_back(std::move(req));
  }
  in.fingerprint = fp.value();
  return in;
}

}  // namespace perfbench

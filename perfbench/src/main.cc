// ctxpref serving benchmark.
//
//   ctxpref_perfbench --workload hot_hits|cold_explore|churn_publish
//                     --seed N --seconds S --trace 0|1
//                     [--scale full|tiny] [--corrupt-answer 0|1]
//                     [--commit ID]
//
// Generates the workload's inputs from the seed, sets the serving stack
// up several times (setup_s is the median), serves the request stream
// closed loop for S seconds untraced, and re-checks a fixed sample of
// answers against the uncached oracle. With --trace 1 the untraced phase
// takes S/2 seconds and a traced replay of the same requests, layer by
// layer, the other S/2. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the exit code is
// non-zero when any answer or invariant check fails.

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "oracle.h"
#include "preference/flat_profile_tree.h"
#include "preference/profile_tree.h"
#include "replay.h"
#include "serving_adapter.h"
#include "storage/profile_store.h"
#include "util/random.h"
#include "workload/poi_dataset.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using ctxpref::Status;
using ctxpref::StatusOr;
using ctxpref::storage::ProfileStore;
using ctxpref::storage::ServedQuery;
using ctxpref::storage::ServedVia;

constexpr uint64_t kWriterMix = 0x94d049bb133111ebull;
/// Every kSampleStride-th measured answer of a client is kept for the
/// oracle, up to kMaxSamples per client.
constexpr uint64_t kSampleStride = 101;
constexpr size_t kMaxSamples = 32;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    if (key == "--workload") {
      a->workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--scale") {
      if (val != "full" && val != "tiny") return false;
      a->tiny = val == "tiny";
    } else if (key == "--corrupt-answer") {
      a->corrupt = val == "1";
    } else if (key == "--commit") {
      a->commit = val;
    } else {
      return false;
    }
  }
  return have_workload && a->seconds > 0.0;
}

enum Phase : int { kWarmup, kMeasure, kStop };

/// Everything the client and writer threads share during one phase.
struct World {
  const WorkloadSpec& spec;
  const Inputs& in;
  const ctxpref::db::Relation& relation;
  ProfileStore& store;
  ServingStack& stack;
  VersionHistory& history;
  uint64_t seed;
  std::atomic<int> phase{kWarmup};
  /// The measured window is cut into `slices` equal slices starting at
  /// `window_start` (set before the phase turns kMeasure).
  size_t slices = 1;
  uint64_t slice_ns = 1;
  std::atomic<uint64_t> window_start{0};

  size_t SliceOf(uint64_t t) const {
    const uint64_t start = window_start.load(std::memory_order_relaxed);
    const uint64_t i = t > start ? (t - start) / slice_ns : 0;
    return std::min<size_t>(i, slices - 1);
  }
};

struct ClientOut {
  std::vector<Histogram> latency;  ///< One per slice of the window.
  uint64_t offered = 0;
  uint64_t served = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  std::array<uint64_t, 4> via{};
  std::vector<Sample> samples;
  std::string first_error;
  std::unique_ptr<LayerStats> trace;  ///< Traced phase only.

  void NoteError(const std::string& what) {
    ++errors;
    if (first_error.empty()) first_error = what;
  }
};

struct WriterOut {
  Histogram latency;
  Histogram lag;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  std::unique_ptr<LayerStats> trace;
};

struct PhaseResult {
  std::vector<ClientOut> clients;
  WriterOut writer;
  double window_s = 0.0;
  /// Share of the host's CPU time stolen from this machine (hypervisor
  /// steal) during the window; -1 when /proc/stat is unreadable.
  double steal_ratio = -1.0;
};

/// (steal, total) jiffies from the first line of /proc/stat.
std::pair<uint64_t, uint64_t> CpuJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  uint64_t v = 0, total = 0, steal = 0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

void TracedRequest(World& w, const Request& req, size_t idx, ClientOut& out) {
  const std::string& user = w.in.user_ids[req.user];
  const ReplayTarget target{&w.store, &w.relation, &w.stack};
  ctxpref::storage::SnapshotPtr pinned;
  StatusOr<ctxpref::QueryResult> replayed =
      Replay(target, user, req.query, *out.trace, &pinned);
  StatusOr<ServedQuery> served =
      w.stack.Serve(w.store, user, w.relation, req.query);
  ++out.trace->replays;
  bool same = false;
  if (replayed.ok() && served.ok()) {
    const std::string want = AnswerBytes(*replayed);
    const ctxpref::storage::ServingProvenance& prov = served->provenance;
    if (prov.via == ServedVia::kFresh &&
        prov.served_version == pinned->serving_version()) {
      same = AnswerBytes(served->result) == want;
    } else {
      // A publish landed between the replay's pin and the serve's (or
      // the ladder served a degraded answer): compare with the serving
      // path at the replay's own snapshot instead.
      StatusOr<ctxpref::QueryResult> at =
          w.stack.ServeAt(*pinned, w.relation, req.query);
      same = at.ok() && AnswerBytes(*at) == want;
    }
  }
  if (!same) {
    ++out.trace->mismatches;
    if (out.first_error.empty()) {
      out.first_error = "replayed answer to request " + std::to_string(idx) +
                        " differs from the served one";
    }
  }
}

void ClientLoop(World& w, size_t client, bool traced, ClientOut& out) {
  PinToCpu(client);
  const size_t n = w.in.requests.size();
  size_t i = client * n / w.spec.clients;
  uint64_t measured = 0;
  for (;;) {
    const int phase = w.phase.load(std::memory_order_acquire);
    if (phase == kStop) break;
    const size_t idx = i++ % n;
    const Request& req = w.in.requests[idx];
    if (traced && phase == kMeasure) {
      TracedRequest(w, req, idx, out);
      continue;
    }
    const uint64_t t0 = NowNs();
    StatusOr<ServedQuery> r = w.stack.Serve(w.store, w.in.user_ids[req.user],
                                            w.relation, req.query);
    const uint64_t t1 = NowNs();
    if (phase != kMeasure || traced) {
      if (!r.ok() && !r.status().IsUnavailable()) {
        out.NoteError(r.status().ToString());
      }
      continue;
    }
    ++out.offered;
    if (!r.ok()) {
      if (r.status().IsUnavailable()) {
        ++out.shed;
      } else {
        out.NoteError(r.status().ToString());
      }
      continue;
    }
    out.latency[w.SliceOf(t1)].Record(t1 - t0);
    ++out.served;
    ++out.via[static_cast<size_t>(r->provenance.via)];
    if (measured++ % kSampleStride == 0 && out.samples.size() < kMaxSamples) {
      Sample s;
      s.request = idx;
      s.at_version = r->provenance.via == ServedVia::kStale
                         ? w.history.At(r->provenance.served_version)
                         : r->snapshot;
      s.served = std::move(*r);
      out.samples.push_back(std::move(s));
    }
  }
}

/// Builds `profile`'s pointer tree and its arena as a publish does,
/// timing each; the store's own publish then repeats both.
void TimeBuilds(const ctxpref::Profile& profile, uint64_t* tree_ns,
                uint64_t* flat_ns) {
  uint64_t a = NowNs();
  StatusOr<ctxpref::ProfileTree> tree = ctxpref::ProfileTree::Build(profile);
  uint64_t b = NowNs();
  *tree_ns = b - a;
  *flat_ns = 0;
  if (!tree.ok()) return;
  a = b;
  ctxpref::FlatProfileTree flat = ctxpref::FlatProfileTree::Build(*tree);
  b = NowNs();
  *flat_ns = b - a;
}

double GridScore(ctxpref::Rng& rng) {
  return 0.05 * static_cast<double>(1 + rng.Uniform(20));
}

/// Open-loop writer: edit k is due at start + k / rate whatever the
/// readers do. Edits cycle through the users; each rescores one
/// preference, and every `republish_every`-th republishes the whole
/// profile with every score redrawn. Latency runs from the due time.
void WriterLoop(World& w, bool traced, WriterOut& out) {
  const WorkloadSpec& spec = w.spec;
  ctxpref::Rng rng(w.seed ^ kWriterMix);
  const uint64_t period = static_cast<uint64_t>(1e9 / spec.writer_rate_hz);
  // Sleep to within kSpinNs of the due time with the minimum timer
  // slack, then yield-spin, so the lag reflects scheduling rather than
  // timer coalescing.
  constexpr uint64_t kSpinNs = 200000;
  PinToCpu(spec.clients);
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const uint64_t start = NowNs();
  for (uint64_t k = 0;; ++k) {
    const uint64_t due = start + k * period;
    uint64_t now = NowNs();
    while (now < due) {
      if (w.phase.load(std::memory_order_acquire) == kStop) return;
      if (due - now > kSpinNs) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<uint64_t>(due - now - kSpinNs, 1000000)));
      } else {
        std::this_thread::yield();
      }
      now = NowNs();
    }
    const int phase = w.phase.load(std::memory_order_acquire);
    if (phase == kStop) return;
    const bool measured = phase == kMeasure;
    const std::string& user = w.in.user_ids[k % w.in.user_ids.size()];
    const bool whole =
        spec.republish_every > 0 && (k + 1) % spec.republish_every == 0;
    const uint64_t pick = rng.Next();
    const double score = GridScore(rng);

    StatusOr<ctxpref::storage::SnapshotPtr> current = w.store.GetSnapshot(user);
    if (!current.ok()) {
      ++out.failed;
      if (out.first_error.empty()) out.first_error = current.status().ToString();
      continue;
    }
    uint64_t tree_ns = 0;
    uint64_t flat_ns = 0;
    uint64_t begin = 0;
    Status st = Status::OK();
    if (whole) {
      ctxpref::Profile next((*current)->profile().env_ptr());
      for (const ctxpref::ContextualPreference& p :
           (*current)->profile().preferences()) {
        StatusOr<ctxpref::ContextualPreference> rescored =
            ctxpref::ContextualPreference::Create(p.descriptor(), p.clause(),
                                                  GridScore(rng));
        if (!rescored.ok() || !next.Insert(std::move(*rescored)).ok()) {
          st = Status::Internal("republish: preference did not re-insert");
        }
      }
      if (traced && measured) TimeBuilds(next, &tree_ns, &flat_ns);
      begin = NowNs();
      if (st.ok()) st = w.store.PublishProfile(user, std::move(next));
    } else {
      auto edit = [pick, score](ctxpref::Profile& p) {
        return p.UpdateScore(pick % p.size(), score);
      };
      if (traced && measured) {
        ctxpref::Profile copy = (*current)->profile();
        if (edit(copy).ok()) TimeBuilds(copy, &tree_ns, &flat_ns);
      }
      begin = NowNs();
      st = w.store.UpdateUser(user, edit);
    }
    const uint64_t done = NowNs();
    if (measured) {
      ++out.attempted;
      out.lag.Record(now - due);
      if (st.ok()) {
        out.latency.Record(done - due);
      } else {
        ++out.failed;
        if (out.first_error.empty()) out.first_error = st.ToString();
      }
      if (traced) {
        const uint64_t publish = done - begin;
        out.trace->Add(kTreeBuild, tree_ns);
        out.trace->Add(kFlatBuild, flat_ns);
        out.trace->Add(kPublish, publish > tree_ns + flat_ns
                                     ? publish - tree_ns - flat_ns
                                     : 0);
      }
    }
    StatusOr<ctxpref::storage::SnapshotPtr> published = w.store.GetSnapshot(user);
    if (published.ok()) w.history.Record(*published);
  }
}

PhaseResult RunPhase(World& w, bool traced, double warmup_s, double seconds) {
  PhaseResult r;
  r.clients.resize(w.spec.clients);
  // One slice per whole second (at most 60), so a burst of interference
  // from outside the process, or a stretch of a slower host, moves a
  // few slices' figures, not the median over them.
  w.slices = std::clamp<size_t>(static_cast<size_t>(seconds), 1, 60);
  w.slice_ns = static_cast<uint64_t>(seconds * 1e9 / w.slices);
  for (ClientOut& c : r.clients) c.latency.resize(w.slices);
  if (traced) {
    for (ClientOut& c : r.clients) c.trace = std::make_unique<LayerStats>();
    r.writer.trace = std::make_unique<LayerStats>();
  }
  w.phase.store(kWarmup, std::memory_order_release);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < w.spec.clients; ++c) {
    threads.emplace_back(ClientLoop, std::ref(w), c, traced,
                         std::ref(r.clients[c]));
  }
  if (w.spec.writer_rate_hz > 0) {
    threads.emplace_back(WriterLoop, std::ref(w), traced, std::ref(r.writer));
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  const std::pair<uint64_t, uint64_t> jiffies0 = CpuJiffies();
  const uint64_t t0 = NowNs();
  w.window_start.store(t0, std::memory_order_relaxed);
  w.phase.store(kMeasure, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  w.phase.store(kStop, std::memory_order_release);
  const uint64_t t1 = NowNs();
  const std::pair<uint64_t, uint64_t> jiffies1 = CpuJiffies();
  if (jiffies1.second > jiffies0.second) {
    r.steal_ratio = static_cast<double>(jiffies1.first - jiffies0.first) /
                    static_cast<double>(jiffies1.second - jiffies0.second);
  }
  for (std::thread& t : threads) t.join();
  r.window_s = static_cast<double>(t1 - t0) / 1e9;
  return r;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintHost(const Args& args) {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 0) load[0] = -1;
  const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
  std::printf(
      "host: {\"nproc\": %ld, \"build_type\": \"%s\", \"release\": %s, "
      "\"compiler\": \"%s\", \"commit\": \"%s\", \"loadavg_1m\": %.2f}\n",
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
      release ? "true" : "false", __VERSION__, args.commit.c_str(), load[0]);
  if (!release) {
    std::printf(
        "WARNING: %s build, not Release: timings are not comparable to "
        "Release numbers\n",
        PERFBENCH_BUILD_TYPE);
  }
}

int Run(const Args& args) {
  PrintHost(args);
  StatusOr<WorkloadSpec> spec_or = SpecFor(args.workload, args.tiny);
  if (!spec_or.ok()) {
    std::fprintf(stderr, "%s\n", spec_or.status().ToString().c_str());
    return 2;
  }
  const WorkloadSpec& spec = *spec_or;
  StatusOr<Inputs> in_or = GenerateInputs(spec, args.seed);
  if (!in_or.ok()) {
    std::fprintf(stderr, "input generation: %s\n",
                 in_or.status().ToString().c_str());
    return 2;
  }
  const Inputs& in = *in_or;
  size_t total_prefs = 0;
  for (const ctxpref::Profile& p : in.profiles) total_prefs += p.size();
  std::printf(
      "workload: %s scale=%s seed=%" PRIu64
      " seconds=%g trace=%d fingerprint=%08" PRIx32
      " users=%zu prefs=%zu pois=%zu requests=%zu clients=%zu pool=%d\n",
      spec.name.c_str(), args.tiny ? "tiny" : "full", args.seed, args.seconds,
      args.trace ? 1 : 0, in.fingerprint, spec.users, total_prefs, spec.pois,
      in.requests.size(), spec.clients, spec.pool ? 1 : 0);

  // Set-up: build the relation and load every user (snapshot builds
  // included), at least three times and until a second of set-up work
  // has been timed (a fifth of one at tiny scale), at most 200 times;
  // the last one serves. Profile copies are made and old stores
  // destroyed outside the timed part.
  const double setup_budget_s = args.tiny ? 0.2 : 1.0;
  std::vector<double> setup_times;
  double setup_total_s = 0;
  std::unique_ptr<ctxpref::db::Relation> relation;
  std::unique_ptr<ProfileStore> store;
  for (size_t rep = 0;
       rep < 200 && (rep < 3 || setup_total_s < setup_budget_s); ++rep) {
    std::vector<ctxpref::Profile> copies = in.profiles;
    store.reset();
    relation.reset();
    const uint64_t t0 = NowNs();
    StatusOr<ctxpref::workload::PoiDatabase> poi =
        ctxpref::workload::MakePoiDatabase(spec.pois, args.seed);
    if (!poi.ok()) {
      std::fprintf(stderr, "%s\n", poi.status().ToString().c_str());
      return 2;
    }
    relation = std::make_unique<ctxpref::db::Relation>(std::move(poi->relation));
    store = std::make_unique<ProfileStore>(in.env);
    for (size_t u = 0; u < in.user_ids.size(); ++u) {
      Status st = store->CreateUser(in.user_ids[u], std::move(copies[u]));
      if (!st.ok()) {
        std::fprintf(stderr, "set-up: %s\n", st.ToString().c_str());
        return 2;
      }
    }
    setup_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_total_s += setup_times.back();
  }
  const double setup_s = Median(setup_times);

  ServingStack stack(in.env, spec);
  stack.AttachTo(*store);
  VersionHistory history;
  double snapshot_bytes = 0;
  for (const std::string& user : in.user_ids) {
    StatusOr<ctxpref::storage::SnapshotPtr> snap = store->GetSnapshot(user);
    if (!snap.ok()) return 2;
    snapshot_bytes += static_cast<double>((*snap)->tree().MeasuredByteSize() +
                                          (*snap)->flat_tree()->MeasuredByteSize());
    history.Record(*snap);
  }
  const double bytes_per_pref = snapshot_bytes / static_cast<double>(total_prefs);

  World w{spec, in, *relation, *store, stack, history, args.seed};
  uint64_t warm_errors = 0;
  if (spec.warm_every_state) {
    // Serve each distinct (user, context) of the stream once.
    std::set<std::pair<uint32_t, std::vector<ctxpref::ContextState>>> seen;
    for (const Request& req : in.requests) {
      if (!seen.emplace(req.user, req.query.context.EnumerateStates(*in.env))
               .second) {
        continue;
      }
      if (!stack.Serve(*store, in.user_ids[req.user], *relation, req.query)
               .ok()) {
        ++warm_errors;
      }
    }
  }
  // With --trace 1 the measured time is split evenly between the
  // untraced phase (ladder mix, overhead base) and the traced replay.
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  const double warmup_s = std::clamp(0.1 * args.seconds, 0.2, 1.0);
  PhaseResult base = RunPhase(w, /*traced=*/false, warmup_s, phase_s);

  // ---- After the timed window: oracle and invariants. ----
  std::vector<std::string> failures;
  Histogram latency;
  std::vector<Histogram> slices(w.slices);
  uint64_t offered = 0, served = 0, shed = 0, errors = warm_errors;
  std::array<uint64_t, 4> via{};
  size_t checked = 0;
  uint64_t oracle_failed = 0;
  for (ClientOut& c : base.clients) {
    for (size_t i = 0; i < slices.size(); ++i) {
      slices[i].Merge(c.latency[i]);
      latency.Merge(c.latency[i]);
    }
    offered += c.offered;
    served += c.served;
    shed += c.shed;
    errors += c.errors;
    for (size_t v = 0; v < via.size(); ++v) via[v] += c.via[v];
    if (!c.first_error.empty()) failures.push_back(c.first_error);
    for (const Sample& s : c.samples) {
      const std::string why = CheckSample(s, in.requests[s.request], *relation,
                                          stack.query_options(),
                                          stack.truncated_top_k());
      ++checked;
      if (!why.empty()) {
        ++oracle_failed;
        failures.push_back("oracle: " + why);
      }
    }
  }
  if (args.corrupt) {
    // Self-test hook: a copy of one answer with its first score bumped
    // (or a tuple added) must be rejected by the oracle.
    const ClientOut& first = base.clients[0];
    bool rejected = false;
    if (!first.samples.empty()) {
      Sample bad = first.samples[0];
      if (bad.served.result.tuples.empty()) {
        bad.served.result.tuples.push_back({0, 1.0});
      } else {
        bad.served.result.tuples[0].score += 0.5;
      }
      rejected = !CheckSample(bad, in.requests[bad.request], *relation,
                              stack.query_options(), stack.truncated_top_k())
                      .empty();
    }
    ++checked;
    ++oracle_failed;
    failures.push_back(rejected ? "oracle: corrupted answer copy rejected"
                                : "oracle: corrupted answer copy NOT rejected");
  }
  if (checked == 0) failures.push_back("oracle: no answer was sampled");
  const ctxpref::CacheStats cache_stats = stack.cache().Stats();
  uint64_t invariant_failed = 0;
  if (cache_stats.lookups != cache_stats.hits + cache_stats.misses) {
    ++invariant_failed;
    failures.push_back("invariant: cache lookups != hits + misses");
  }
  if (served + shed != offered) {
    ++invariant_failed;
    failures.push_back("invariant: served + shed != offered");
  }
  if (!base.writer.first_error.empty()) failures.push_back(base.writer.first_error);

  uint64_t attempted = offered + base.writer.attempted;
  uint64_t failed = shed + errors + oracle_failed + invariant_failed +
                    base.writer.failed + (checked == 0 ? 1 : 0);

  // ---- Traced run of the same requests. ----
  LayerStats trace;
  if (args.trace) {
    PhaseResult traced = RunPhase(w, /*traced=*/true, 0.0, phase_s);
    for (ClientOut& c : traced.clients) {
      trace.Merge(*c.trace);
      errors += c.errors;
      failed += c.errors;
      if (!c.first_error.empty()) failures.push_back(c.first_error);
    }
    trace.Merge(*traced.writer.trace);
    attempted += trace.replays + traced.writer.attempted;
    failed += trace.mismatches + traced.writer.failed;
    if (trace.replays == 0) {
      ++failed;
      failures.push_back("trace: no request was replayed");
    }
    if (!traced.writer.first_error.empty()) {
      failures.push_back(traced.writer.first_error);
    }
  }
  const double peak_rss = PeakRssMiB();

  // ---- Report. ----
  // Each query metric is the median of its per-slice values.
  std::vector<double> slice_p50, slice_p99, slice_qps;
  const double slice_s = base.window_s / static_cast<double>(slices.size());
  for (const Histogram& h : slices) {
    slice_p50.push_back(h.Quantile(0.50) / 1e3);
    slice_p99.push_back(h.Quantile(0.99) / 1e3);
    slice_qps.push_back(static_cast<double>(h.count()) / slice_s);
  }
  const double p50_us = Median(slice_p50);
  const double p99_us = Median(slice_p99);
  const double qps = Median(slice_qps);
  const bool writes = base.writer.latency.count() > 0;
  const double pub_p50 = base.writer.latency.Quantile(0.50) / 1e3;
  const double pub_p99 = base.writer.latency.Quantile(0.99) / 1e3;
  const double failed_ratio = Ratio(static_cast<double>(failed),
                                    static_cast<double>(attempted));
  const uint64_t n = latency.count();
  std::printf("end-to-end (untraced, %.3f s window, median of %zu slices):\n",
              base.window_s, slices.size());
  std::printf("  query_p50_us          %12.3f us    n=%" PRIu64
              " (whole window %.3f)\n",
              p50_us, n, latency.Quantile(0.50) / 1e3);
  std::printf("  query_p99_us          %12.3f us    n=%" PRIu64 ", %" PRIu64
              " beyond (whole window %.3f)\n",
              p99_us, n, n / 100, latency.Quantile(0.99) / 1e3);
  std::printf("  query_throughput_qps  %12.1f 1/s   %" PRIu64 " served\n", qps,
              served);
  std::printf("  quantiles p50/p90/p95/p98/p99/p99.5/p99.9: %.1f %.1f %.1f %.1f %.1f %.1f %.1f us\n",
              latency.Quantile(0.5) / 1e3, latency.Quantile(0.9) / 1e3,
              latency.Quantile(0.95) / 1e3, latency.Quantile(0.98) / 1e3,
              latency.Quantile(0.99) / 1e3, latency.Quantile(0.995) / 1e3,
              latency.Quantile(0.999) / 1e3);
  std::printf("  slices (qps/p50/p99):");
  for (size_t i = 0; i < slices.size(); ++i) {
    std::printf(" %.0f/%.2f/%.1f", slice_qps[i], slice_p50[i], slice_p99[i]);
  }
  std::printf("\n");
  if (writes) {
    std::printf("  publish_p50_us        %12.3f us    n=%" PRIu64 "\n", pub_p50,
                base.writer.latency.count());
    std::printf("  publish_p99_us        %12.3f us    n=%" PRIu64 "\n", pub_p99,
                base.writer.latency.count());
  } else {
    std::printf("  publish_p50_us                 n/a us    (no writes)\n");
    std::printf("  publish_p99_us                 n/a us    (no writes)\n");
  }
  std::printf("  failed_ratio          %12.6f ratio %" PRIu64 " of %" PRIu64
              " ops\n",
              failed_ratio, failed, attempted);
  std::printf("  setup_s               %12.6f s     median of %zu (%.6f .. %.6f)\n",
              setup_s, setup_times.size(),
              *std::min_element(setup_times.begin(), setup_times.end()),
              *std::max_element(setup_times.begin(), setup_times.end()));
  std::printf("  store_bytes_per_pref  %12.3f B     %zu prefs\n", bytes_per_pref,
              total_prefs);
  std::printf("  peak_rss_mib          %12.3f MiB\n", peak_rss);
  std::printf(
      "checks: %zu answers re-checked, %" PRIu64 " rejected; cache lookups=%" PRIu64
      " hits=%" PRIu64 " misses=%" PRIu64 "; offered=%" PRIu64 " served=%" PRIu64
      " shed=%" PRIu64 " errors=%" PRIu64 "\n",
      checked, oracle_failed, cache_stats.lookups, cache_stats.hits,
      cache_stats.misses, offered, served, shed, errors);
  std::printf("host during window: steal_ratio=%.4f\n", base.steal_ratio);
  for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"query_p50_us", p50_us, "us"},
        {"query_p99_us", p99_us, "us"},
        {"query_throughput_qps", qps, "1/s"},
        {"setup_s", setup_s, "s"},
        {"store_bytes_per_pref", bytes_per_pref, "B"},
        {"peak_rss_mib", peak_rss, "MiB"},
    };
  } else {
    const double q = static_cast<double>(trace.queries);
    for (size_t l = 0; l < kNumLayers; ++l) {
      const std::string name = LayerName(static_cast<Layer>(l));
      metrics.push_back({name + ".self_p50_ns", trace.self[l].Quantile(0.5), "ns"});
      metrics.push_back({name + ".calls_per_query",
                         Ratio(static_cast<double>(trace.calls[l]), q), "count"});
    }
    const double resolved = static_cast<double>(trace.resolved_states);
    const double returned = static_cast<double>(trace.tuples_returned);
    const double offered_d = static_cast<double>(offered);
    uint64_t layer_ns = 0;
    for (uint64_t ns : trace.total_ns) layer_ns += ns;
    const double traced_per_query = Ratio(static_cast<double>(trace.traced_ns), q);
    std::vector<Metric> more = {
        {"preference.cache_probe.hit_ratio",
         Ratio(static_cast<double>(trace.hits), static_cast<double>(trace.lookups)),
         "ratio"},
        {"preference.cache.entries", static_cast<double>(stack.cache().size()),
         "count"},
        {"preference.merge_topk.tuples_per_result",
         Ratio(static_cast<double>(trace.tuples_merged), returned), "ratio"},
        {"preference.trace_copy.paths_per_query",
         Ratio(static_cast<double>(trace.paths_copied), q), "count"},
        {"preference.search_cs.cells_per_state",
         Ratio(static_cast<double>(trace.cells), resolved), "count"},
        {"preference.resolve_best.winners_per_state",
         Ratio(static_cast<double>(trace.winners), resolved), "count"},
        {"db.select.rows_per_result",
         Ratio(static_cast<double>(trace.rows_selected), returned), "ratio"},
        {"storage.ladder.fresh_ratio",
         Ratio(static_cast<double>(via[0]), offered_d), "ratio"},
        {"storage.ladder.stale_ratio",
         Ratio(static_cast<double>(via[1]), offered_d), "ratio"},
        {"storage.ladder.truncated_ratio",
         Ratio(static_cast<double>(via[2]), offered_d), "ratio"},
        {"storage.ladder.shed_ratio", Ratio(static_cast<double>(shed), offered_d),
         "ratio"},
        {"gen.writer_lag_p99_us", base.writer.lag.Quantile(0.99) / 1e3, "us"},
        {"publish_p50_us", pub_p50, "us"},
        {"publish_p99_us", pub_p99, "us"},
        {"trace.unexplained_ratio",
         1.0 - Ratio(static_cast<double>(trace.explained_ns),
                     static_cast<double>(trace.traced_ns)),
         "ratio"},
        {"trace.overhead_ratio", Ratio(traced_per_query, latency.Mean()), "ratio"},
    };
    metrics.insert(metrics.end(), more.begin(), more.end());
    std::printf("per-layer (traced replay, %" PRIu64 " queries, %" PRIu64
                " replays, %" PRIu64 " mismatches, %.3f us traced per query):\n",
                trace.queries, trace.replays, trace.mismatches,
                traced_per_query / 1e3);
    for (size_t l = 0; l < kNumLayers; ++l) {
      std::printf("  %-26s self_p50 %10.1f ns  calls/query %8.3f  share %6.2f%%\n",
                  LayerName(static_cast<Layer>(l)), trace.self[l].Quantile(0.5),
                  Ratio(static_cast<double>(trace.calls[l]), q),
                  100.0 * Ratio(static_cast<double>(trace.total_ns[l]),
                                static_cast<double>(layer_ns)));
    }
  }

  const bool correct = failures.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.10g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--scale full|tiny] [--corrupt-answer 0|1] [--commit ID]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}

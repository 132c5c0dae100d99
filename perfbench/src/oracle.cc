#include "oracle.h"

#include <cstring>

#include "context/descriptor.h"
#include "preference/resolution.h"

namespace perfbench {

using ctxpref::ContextState;

namespace {

void PutU64(std::string& out, uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void PutF64(std::string& out, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  PutU64(out, bits);
}

void PutStr(std::string& out, const std::string& s) {
  PutU64(out, s.size());
  out += s;
}

void PutState(std::string& out, const ContextState& s) {
  PutU64(out, s.size());
  for (const ctxpref::ValueRef& v : s.values()) {
    PutU64(out, v.level);
    PutU64(out, v.id);
  }
}

}  // namespace

std::string AnswerBytes(const ctxpref::QueryResult& r) {
  std::string out;
  PutU64(out, r.tuples.size());
  for (const ctxpref::db::ScoredTuple& t : r.tuples) {
    PutU64(out, t.row_id);
    PutF64(out, t.score);
  }
  PutU64(out, r.traces.size());
  for (const ctxpref::QueryResult::Trace& trace : r.traces) {
    PutState(out, trace.query_state);
    PutU64(out, trace.candidates.size());
    for (const ctxpref::CandidatePath& c : trace.candidates) {
      PutState(out, c.state);
      PutF64(out, c.distance);
      PutU64(out, c.entries.size());
      for (const ctxpref::ProfileTree::LeafEntry& e : c.entries) {
        PutStr(out, e.clause.attribute);
        PutU64(out, static_cast<uint64_t>(e.clause.op));
        PutU64(out, static_cast<uint64_t>(e.clause.value.type()));
        PutStr(out, e.clause.value.ToString());
        PutF64(out, e.score);
        PutU64(out, e.ref);
      }
    }
  }
  return out;
}

void VersionHistory::Record(ctxpref::storage::SnapshotPtr snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  by_version_[snapshot->serving_version()] = std::move(snapshot);
  while (by_version_.size() > kKeep) by_version_.erase(by_version_.begin());
}

ctxpref::storage::SnapshotPtr VersionHistory::At(uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_version_.find(version);
  return it == by_version_.end() ? nullptr : it->second;
}

std::string CheckSample(const Sample& sample, const Request& request,
                        const ctxpref::db::Relation& relation,
                        const ctxpref::QueryOptions& serve_options,
                        size_t truncated_top_k) {
  const ctxpref::storage::ServingProvenance& prov = sample.served.provenance;
  if (sample.at_version == nullptr ||
      sample.at_version->serving_version() != prov.served_version) {
    return "no snapshot kept at served version " +
           std::to_string(prov.served_version);
  }
  const ctxpref::storage::ProfileSnapshot& snap = *sample.at_version;
  ctxpref::QueryOptions options;
  options.resolution = serve_options.resolution;
  options.combine = serve_options.combine;
  options.top_k = serve_options.top_k;
  ctxpref::ContextualQuery query = request.query;
  if (prov.via == ctxpref::storage::ServedVia::kTruncated) {
    const ctxpref::ContextEnvironment& env = snap.tree().env();
    std::vector<ContextState> states = query.context.EnumerateStates(env);
    if (states.empty()) states.push_back(ContextState::AllState(env));
    ctxpref::StatusOr<ctxpref::CompositeDescriptor> first =
        ctxpref::CompositeDescriptor::ForState(env, states[0]);
    if (!first.ok()) return first.status().ToString();
    query.context = ctxpref::ExtendedDescriptor::FromComposite(std::move(*first));
    options.top_k = truncated_top_k;
  }
  const ctxpref::TreeResolver resolver(&snap.tree());
  ctxpref::StatusOr<ctxpref::QueryResult> expected =
      ctxpref::RankCS(relation, query, resolver, options);
  if (!expected.ok()) return expected.status().ToString();
  if (AnswerBytes(*expected) != AnswerBytes(sample.served.result)) {
    return "answer to request " + std::to_string(sample.request) + " (" +
           prov.ToString() + ") differs from uncached RankCS at version " +
           std::to_string(prov.served_version);
  }
  return "";
}

}  // namespace perfbench

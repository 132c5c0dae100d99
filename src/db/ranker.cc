#include "db/ranker.h"

#include <algorithm>

namespace ctxpref::db {

const char* CombinePolicyToString(CombinePolicy p) {
  switch (p) {
    case CombinePolicy::kMax:
      return "max";
    case CombinePolicy::kMin:
      return "min";
    case CombinePolicy::kAvg:
      return "avg";
    case CombinePolicy::kWeighted:
      return "weighted";
  }
  return "?";
}

void Ranker::Combine(Entry& e, double score, double weight) {
  switch (policy_) {
    case CombinePolicy::kMax:
      e.combined = std::max(e.combined, score);
      break;
    case CombinePolicy::kMin:
      e.combined = std::min(e.combined, score);
      break;
    case CombinePolicy::kAvg:
    case CombinePolicy::kWeighted:
      break;  // Handled via the weighted sums below.
  }
  e.weighted_sum += score * weight;
  e.weight_sum += weight;
}

void Ranker::AddWeighted(RowId row_id, double score, double weight) {
  if (row_id < present_.size()) {
    // Dense path (ReserveDense): one indexed load, no insertion shift.
    Entry& e = dense_[row_id];
    if (!present_[row_id]) {
      present_[row_id] = 1;
      touched_.push_back(row_id);
      e = Entry{score, score * weight, weight};
      return;
    }
    Combine(e, score, weight);
    return;
  }
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), row_id,
      [](const auto& e, RowId id) { return e.first < id; });
  if (it == entries_.end() || it->first != row_id) {
    entries_.insert(it,
                    {row_id, Entry{score, score * weight, weight}});
    return;
  }
  Combine(it->second, score, weight);
}

void Ranker::ReserveDense(size_t num_rows) {
  if (num_rows <= dense_.size()) return;
  dense_.resize(num_rows);
  present_.resize(num_rows, 0);
  // Migrate flat-map entries the dense table now covers, so mixing
  // ReserveDense with earlier Adds cannot double-count a row.
  auto it = entries_.begin();
  while (it != entries_.end()) {
    if (it->first < num_rows) {
      dense_[it->first] = it->second;
      present_[it->first] = 1;
      touched_.push_back(it->first);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void Ranker::Clear() {
  entries_.clear();
  for (const RowId id : touched_) present_[id] = 0;
  touched_.clear();
}

double Ranker::Finalize(const Entry& e) const {
  switch (policy_) {
    case CombinePolicy::kMax:
    case CombinePolicy::kMin:
      return e.combined;
    case CombinePolicy::kAvg:
    case CombinePolicy::kWeighted:
      return e.weight_sum > 0 ? e.weighted_sum / e.weight_sum : 0.0;
  }
  return 0.0;
}

std::vector<ScoredTuple> Ranker::Ranked() const {
  std::vector<ScoredTuple> out;
  out.reserve(size());
  for (const auto& [row_id, e] : entries_) {
    out.push_back(ScoredTuple{row_id, Finalize(e)});
  }
  for (const RowId id : touched_) {
    out.push_back(ScoredTuple{id, Finalize(dense_[id])});
  }
  std::sort(out.begin(), out.end(),
            [](const ScoredTuple& a, const ScoredTuple& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.row_id < b.row_id;
            });
  return out;
}

std::vector<ScoredTuple> Ranker::TopK(size_t k) const {
  std::vector<ScoredTuple> ranked = Ranked();
  if (k == 0 || ranked.size() <= k) return ranked;
  // Extend past k while tied with the k-th score.
  size_t end = k;
  const double kth = ranked[k - 1].score;
  while (end < ranked.size() && ranked[end].score == kth) ++end;
  ranked.resize(end);
  return ranked;
}

namespace {

/// True once `out` holds `top_k` rows and `score` falls below the k-th:
/// the ordered merge paths stop there (`TopK` keeps every tie).
bool PastTopK(const std::vector<ScoredTuple>& out, size_t top_k,
              double score) {
  return top_k > 0 && out.size() >= top_k && score != out[top_k - 1].score;
}

std::vector<ScoredTuple> WalkRun(RankedRun run, size_t top_k,
                                 const RowFilter& eligible) {
  std::vector<ScoredTuple> out;
  out.reserve(top_k > 0 ? std::min(top_k, run.size()) : run.size());
  for (const ScoredTuple& t : run) {
    if (PastTopK(out, top_k, t.score)) break;
    if (eligible && !eligible(t.row_id)) continue;
    out.push_back(t);
  }
  return out;
}

std::vector<ScoredTuple> HeapMergeMax(std::span<const RankedRun> runs,
                                      size_t top_k,
                                      const RowFilter& eligible) {
  struct Cursor {
    const ScoredTuple* at;
    const ScoredTuple* end;
    size_t run;
  };
  // Heap order: the top is the highest score, then lowest row, then
  // earliest run.
  auto after = [](const Cursor& a, const Cursor& b) {
    if (a.at->score != b.at->score) return a.at->score < b.at->score;
    if (a.at->row_id != b.at->row_id) return a.at->row_id > b.at->row_id;
    return a.run > b.run;
  };
  std::vector<Cursor> heap;
  heap.reserve(runs.size());
  for (size_t r = 0; r < runs.size(); ++r) {
    if (runs[r].empty()) continue;
    heap.push_back(
        Cursor{runs[r].data(), runs[r].data() + runs[r].size(), r});
  }
  std::make_heap(heap.begin(), heap.end(), after);

  std::vector<ScoredTuple> out;
  std::vector<uint64_t> seen;  // Bitmap of rows already popped.
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    Cursor& c = heap.back();
    const ScoredTuple t = *c.at;
    if (PastTopK(out, top_k, t.score)) break;
    if (++c.at == c.end) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), after);
    }
    const size_t word = t.row_id / 64;
    const uint64_t bit = uint64_t{1} << (t.row_id % 64);
    if (word >= seen.size()) seen.resize(word + 1, 0);
    if (seen[word] & bit) continue;
    seen[word] |= bit;
    if (eligible && !eligible(t.row_id)) continue;
    out.push_back(t);
  }
  return out;
}

}  // namespace

std::vector<ScoredTuple> MergeRankedRuns(std::span<const RankedRun> runs,
                                         CombinePolicy policy, size_t top_k,
                                         const RowFilter& eligible) {
  const RankedRun* only = nullptr;
  size_t non_empty = 0;
  for (const RankedRun& run : runs) {
    if (run.empty()) continue;
    only = &run;
    ++non_empty;
  }
  if (non_empty == 0) return {};
  if (non_empty == 1) return WalkRun(*only, top_k, eligible);
  if (policy == CombinePolicy::kMax) {
    return HeapMergeMax(runs, top_k, eligible);
  }
  RowId max_row = 0;
  for (const RankedRun& run : runs) {
    for (const ScoredTuple& t : run) max_row = std::max(max_row, t.row_id);
  }
  Ranker ranker(policy);
  ranker.ReserveDense(max_row + 1);
  for (const RankedRun& run : runs) {
    for (const ScoredTuple& t : run) {
      if (!eligible || eligible(t.row_id)) ranker.Add(t.row_id, t.score);
    }
  }
  return top_k > 0 ? ranker.TopK(top_k) : ranker.Ranked();
}

}  // namespace ctxpref::db

#ifndef GSTREAM_ENGINE_MATCH_H_
#define GSTREAM_ENGINE_MATCH_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/ids.h"

namespace gstream {

/// What one streamed update produced, in continuous-notification semantics:
/// the queries that gained at least one new embedding whose derivation uses
/// the update's edge, with per-query counts of new distinct embeddings
/// (an embedding = one homomorphic assignment of query vertices).
///
/// Because the stream is insert-only and base views are sets, "new embedding"
/// is well defined: an assignment is new iff it uses the inserted edge.
/// Every engine — TRIC's delta propagation, INV's recompute-and-diff, the
/// graph database's recount — reports the same `per_query` vector; the
/// cross-engine property suite enforces this.
struct UpdateResult {
  /// False when the update was a duplicate edge (no-op).
  bool changed = false;

  /// Query ids with >= 1 new embedding this update, ascending.
  std::vector<QueryId> triggered;

  /// (query id, #new distinct embeddings), ascending by query id; only
  /// non-zero entries.
  std::vector<std::pair<QueryId, uint64_t>> per_query;

  /// Sum over per_query.
  uint64_t new_embeddings = 0;

  /// Set when the engine aborted mid-update due to the time budget; results
  /// are partial and the engine's internal state must be discarded.
  bool timed_out = false;

  void AddQueryCount(QueryId qid, uint64_t count) {
    if (count == 0) return;
    triggered.push_back(qid);
    per_query.emplace_back(qid, count);
    new_embeddings += count;
  }

  /// Restores the ascending-qid invariant after out-of-order AddQueryCount
  /// calls: the window finalize emits per signature group, so counts
  /// for different queries interleave across groups. Each qid still appears
  /// at most once per result.
  void SortByQuery() {
    std::sort(per_query.begin(), per_query.end());
    triggered.clear();
    for (const auto& [qid, count] : per_query) triggered.push_back(qid);
  }
};

}  // namespace gstream

#endif  // GSTREAM_ENGINE_MATCH_H_

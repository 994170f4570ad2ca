#include "baseline/inv_engine.h"

#include <algorithm>

#include "common/logging.h"

namespace gstream {
namespace baseline {

bool InvEngine::EvaluateQueryTotal(QueryEntry& entry, uint64_t& total) {
  total = 0;
  if (!AllViewsNonEmpty(entry)) return true;  // Step 1 candidate filter
  NoteFinalJoinPass();

  // Steps 2+3: re-materialize every covering path from scratch.
  size_t transient_bytes = 0;
  std::vector<std::unique_ptr<Relation>> path_views;
  for (size_t pi = 0; pi < entry.paths.size(); ++pi) {
    auto view = MaterializeFullPath(entry, pi, IndexSource(), transient_bytes);
    if (view == nullptr) {
      NotePeakTransient(transient_bytes);
      return !BudgetExceeded();
    }
    path_views.push_back(std::move(view));
  }
  NotePeakTransient(transient_bytes);

  // Final join across paths on shared query vertices.
  OwnedBindings acc = PathRowsToBindings(AllRows(*path_views[0]), entry.specs[0]);
  for (size_t pi = 1; pi < entry.paths.size() && !acc.Empty(); ++pi) {
    OwnedBindings other = PathRowsToBindings(AllRows(*path_views[pi]), entry.specs[pi]);
    acc = JoinBindingRanges(acc.schema, acc.All(), other.schema, other.All());
    if (BudgetExceeded()) return false;
  }
  if (acc.Empty()) return true;
  if (!entry.pattern.HasConstraints()) {
    total = acc.rows->NumRows();
    return true;
  }

  // §4.3 extra phase: count only assignments passing property constraints.
  const uint32_t num_vertices = static_cast<uint32_t>(entry.pattern.NumVertices());
  std::vector<uint32_t> perm(num_vertices);
  for (uint32_t c = 0; c < acc.schema.size(); ++c) perm[acc.schema[c]] = c;
  std::vector<VertexId> row(num_vertices);
  for (size_t r = 0; r < acc.rows->NumRows(); ++r) {
    const VertexId* src = acc.rows->Row(r);
    for (uint32_t v = 0; v < num_vertices; ++v) row[v] = src[perm[v]];
    if (SatisfiesConstraints(entry.pattern, row.data())) ++total;
  }
  return true;
}

void InvEngine::AddQueryImpl(QueryId qid, const QueryPattern& q) {
  InvertedIndexEngineBase::AddQueryImpl(qid, q);
  if (seen_edges_.empty()) return;  // pre-stream registration: total is 0
  QueryEntry& entry = queries_.at(qid);
  uint64_t total = 0;
  if (EvaluateQueryTotal(entry, total)) entry.last_count = total;
}

UpdateResult InvEngine::ApplyUpdate(const EdgeUpdate& u) {
  UpdateResult result;
  if (u.op == UpdateOp::kDelete) {
    result.changed = RemoveFromBaseViews(u);
    if (!result.changed) return result;
    // Counts may have dropped; refresh the diff baseline of the affected
    // queries (deletions cannot trigger notifications).
    for (QueryId qid : AffectedQueries(u)) {
      QueryEntry& entry = queries_.at(qid);
      uint64_t total = 0;
      if (!EvaluateQueryTotal(entry, total)) {
        result.timed_out = true;
        return result;
      }
      entry.last_count = total;
    }
    return result;
  }

  if (IsDuplicateUpdate(u)) return result;
  return ProcessInsert(u);
}

bool InvEngine::EvaluateWindowTagged(QueryEntry& entry, InvWindowContext& wctx,
                                     uint32_t probe_weight, bool& pass_ran,
                                     std::vector<uint32_t>& tags, uint64_t& total) {
  pass_ran = false;
  tags.clear();
  total = 0;

  // End-of-window candidate filter: views only grow inside an insert window,
  // so an empty view here means zero embeddings at every member position
  // (sequential evaluation would have found total == 0 each time).
  if (!AllViewsNonEmpty(entry)) return true;
  NoteFinalJoinPass();
  pass_ran = true;

  // One tagged full evaluation per (query, window): the per-update diffs INV
  // recomputes from scratch each time fall out of the histogram of
  // assignment tags (an assignment's tag is the window position its last
  // contributing edge arrived at — exactly when the sequential diff first
  // counts it; tag 0 = already counted in last_count). `probe_weight` > 1
  // marks a pass standing in for that many per-query chains (window-cache
  // build decisions stay identical to the per-query pipeline's).
  size_t transient_bytes = 0;
  std::vector<std::unique_ptr<Relation>> path_views;
  for (size_t pi = 0; pi < entry.paths.size(); ++pi) {
    auto view = MaterializeFullPathTagged(entry, pi, IndexSource(), wctx.prov,
                                          transient_bytes, probe_weight);
    if (view == nullptr) {
      NotePeakTransient(transient_bytes);
      // A dead chain means total 0 at every position (for every member) —
      // unless the budget killed it, which must end the whole finalize.
      return !BudgetExceededNow();
    }
    path_views.push_back(std::move(view));
  }
  NotePeakTransient(transient_bytes);

  OwnedBindings acc = PathRowsToBindingsTagged(
      AllRows(*path_views[0]), entry.specs[0], TagsOfProvenance(*path_views[0]));
  for (size_t pi = 1; pi < entry.paths.size() && !acc.Empty(); ++pi) {
    OwnedBindings other = PathRowsToBindingsTagged(
        AllRows(*path_views[pi]), entry.specs[pi], TagsOfProvenance(*path_views[pi]));
    acc = JoinBindingRangesTagged(acc.schema, acc.All(), other.schema,
                                  other.All(), TagsOfProvenance(*other.rows));
    if (BudgetExceededNow()) return false;
  }
  if (acc.Empty()) return true;

  // Count assignments passing the §4.3 property constraints, split by tag.
  const uint32_t num_vertices = static_cast<uint32_t>(entry.pattern.NumVertices());
  std::vector<uint32_t> perm(num_vertices);
  for (uint32_t c = 0; c < acc.schema.size(); ++c) perm[acc.schema[c]] = c;
  std::vector<VertexId> row(num_vertices);
  uint64_t pre_window = 0;
  for (size_t r = 0; r < acc.rows->NumRows(); ++r) {
    if (entry.pattern.HasConstraints()) {
      const VertexId* src = acc.rows->Row(r);
      for (uint32_t v = 0; v < num_vertices; ++v) row[v] = src[perm[v]];
      if (!SatisfiesConstraints(entry.pattern, row.data())) continue;
    }
    ++total;
    const uint32_t tag = acc.rows->ProvOf(r);
    if (tag == 0)
      ++pre_window;
    else
      tags.push_back(tag);
  }
  // Assignments predating the window are exactly the ones the evaluated
  // entry's previous evaluations already counted.
  if (total > 0) GS_DCHECK(pre_window == entry.last_count);
  (void)pre_window;
  return true;
}

void InvEngine::FinalizeWindow(WindowContext& ctx, UpdateResult* window_results) {
  InvWindowContext& wctx = static_cast<InvWindowContext&>(ctx);
  if (wctx.affected_groups.empty()) return;
  std::sort(wctx.affected_groups.begin(), wctx.affected_groups.end());
  const auto& groups = finalize_groups();

  size_t i = 0;
  while (i < wctx.affected_groups.size()) {
    const uint32_t gid = wctx.affected_groups[i].first;
    size_t j = i;
    while (j < wctx.affected_groups.size() && wctx.affected_groups[j].first == gid)
      ++j;
    i = j;  // positions are implied by the provenance histogram

    if (BudgetExceededNow()) return;  // timeout: partial, flagged by the caller

    // Evaluate the group's representative once; the tagged histogram (and
    // end-of-window total) serves every member (groups that cannot share are
    // singletons).
    const FinalizeGroup& group = *groups[gid];
    bool pass_ran = false;
    std::vector<uint32_t> tags;
    uint64_t total = 0;
    if (!EvaluateWindowTagged(queries_.at(group.members[0]), wctx,
                              static_cast<uint32_t>(group.members.size()),
                              pass_ran, tags, total))
      return;
    if (pass_ran && GroupSharingApplies(group)) NoteSharedGroupPass();
    if (total == 0) continue;
    for (QueryId qid : group.members) {
      QueryEntry& entry = queries_.at(qid);
      // Assignments predating the window are exactly the ones every member's
      // previous evaluations already counted.
      GS_DCHECK(entry.last_count == total - tags.size());
      ScatterTagCounts(tags, qid, window_results);
      entry.last_count = total;
    }
  }
}

}  // namespace baseline
}  // namespace gstream

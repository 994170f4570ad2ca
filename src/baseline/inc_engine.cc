#include "baseline/inc_engine.h"

#include <algorithm>

#include "common/logging.h"

namespace gstream {
namespace baseline {

UpdateResult IncEngine::ApplyUpdate(const EdgeUpdate& u) {
  UpdateResult result;
  if (u.op == UpdateOp::kDelete) {
    // INC owns no per-query state beyond the shared views; retracting the
    // tuple is the whole story (deletions trigger nothing).
    result.changed = RemoveFromBaseViews(u);
    return result;
  }
  if (IsDuplicateUpdate(u)) return result;
  return ProcessInsert(u);
}

bool IncEngine::EvaluateWindowSeeded(
    QueryEntry& entry, InvWindowContext& wctx,
    const std::vector<std::pair<uint32_t, const EdgeUpdate*>>& seeds,
    uint32_t probe_weight, bool& pass_ran, std::vector<uint32_t>& tags) {
  pass_ran = false;
  tags.clear();

  const QueryPattern& q = entry.pattern;
  if (!AllViewsNonEmpty(entry)) return true;

  const size_t num_paths = entry.paths.size();
  size_t transient_bytes = 0;

  // Which covering paths does *any* window update touch?
  std::vector<bool> touched(num_paths, false);
  bool any_touched = false;
  for (size_t pi = 0; pi < num_paths; ++pi) {
    for (const auto& pattern : entry.signatures[pi]) {
      for (const auto& [position, u] : seeds) {
        if (pattern.Matches(*u)) {
          touched[pi] = true;
          any_touched = true;
          break;
        }
      }
      if (touched[pi]) break;
    }
  }
  if (!any_touched) return true;
  NoteFinalJoinPass();
  pass_ran = true;

  // One tagged seeded evaluation per (query, window): batched deltas for
  // the touched paths, each other path re-materialized at most once.
  // `probe_weight` > 1 marks a pass standing in for that many per-query
  // chains (window-cache build decisions stay identical to the per-query
  // pipeline's).
  std::vector<std::unique_ptr<Relation>> deltas(num_paths);
  std::vector<std::unique_ptr<Relation>> fulls(num_paths);
  bool infeasible = false;
  for (size_t pi = 0; pi < num_paths; ++pi) {
    if (!touched[pi]) continue;
    deltas[pi] =
        MaterializePathDeltaBatch(entry, pi, seeds, IndexSource(), wctx.prov,
                                  transient_bytes, probe_weight);
  }
  auto full_of = [&](size_t pi) -> Relation* {
    if (fulls[pi] == nullptr)
      fulls[pi] = MaterializeFullPathTagged(entry, pi, IndexSource(), wctx.prov,
                                            transient_bytes, probe_weight);
    return fulls[pi].get();
  };

  // Assignments over all query vertices, deduped across seed paths, each
  // tagged with the window position sequential execution reports it at.
  Relation assignments(static_cast<uint32_t>(q.NumVertices()));
  assignments.EnableProvenance();
  for (size_t pi = 0; pi < num_paths && !infeasible; ++pi) {
    if (!touched[pi] || deltas[pi] == nullptr || deltas[pi]->Empty()) continue;
    OwnedBindings acc = PathRowsToBindingsTagged(
        AllRows(*deltas[pi]), entry.specs[pi], TagsOfProvenance(*deltas[pi]));
    for (size_t pj = 0; pj < num_paths && !acc.Empty(); ++pj) {
      if (pj == pi) continue;
      Relation* other = full_of(pj);
      if (other == nullptr) {
        // A dead path chain means the query is unsatisfiable now — unless
        // the materialization aborted on the budget, which must end the
        // whole finalize (results are partial either way under timeout).
        if (BudgetExceededNow()) return false;
        infeasible = true;
        break;
      }
      OwnedBindings ob = PathRowsToBindingsTagged(AllRows(*other), entry.specs[pj],
                                                  TagsOfProvenance(*other));
      acc = JoinBindingRangesTagged(acc.schema, acc.All(), ob.schema, ob.All(),
                                    TagsOfProvenance(*ob.rows));
      if (BudgetExceededNow()) return false;
    }
    if (infeasible || acc.Empty()) continue;

    std::vector<uint32_t> perm(q.NumVertices());
    for (uint32_t c = 0; c < acc.schema.size(); ++c) perm[acc.schema[c]] = c;
    std::vector<VertexId> row(q.NumVertices());
    for (size_t r = 0; r < acc.rows->NumRows(); ++r) {
      const VertexId* src = acc.rows->Row(r);
      for (uint32_t v = 0; v < q.NumVertices(); ++v) row[v] = src[perm[v]];
      if (!SatisfiesConstraints(q, row.data())) continue;
      assignments.AppendTagged(row.data(), acc.rows->ProvOf(r));
    }
  }

  // The per-position counts the caller scatters back onto the window results.
  tags.reserve(assignments.NumRows());
  for (size_t r = 0; r < assignments.NumRows(); ++r) {
    const uint32_t tag = assignments.ProvOf(r);
    GS_DCHECK(tag > 0);
    tags.push_back(tag);
  }
  NotePeakTransient(transient_bytes + assignments.MemoryBytes());
  return true;
}

void IncEngine::FinalizeWindow(WindowContext& ctx, UpdateResult* window_results) {
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

    if (BudgetExceededNow()) return;  // timeout: partial, flagged by the caller

    // The group's window updates, ascending by position. Signature-equal
    // members are affected at identical positions, so the group's seed list
    // is every member's seed list.
    std::vector<std::pair<uint32_t, const EdgeUpdate*>> seeds;
    seeds.reserve(j - i);
    for (size_t k = i; k < j; ++k) {
      const uint32_t position = wctx.affected_groups[k].second;
      seeds.emplace_back(position, &wctx.window_updates[position - 1]);
    }
    i = j;

    // One seeded evaluation of the representative serves every member
    // (groups that cannot share are singletons).
    const FinalizeGroup& group = *groups[gid];
    bool pass_ran = false;
    std::vector<uint32_t> tags;
    if (!EvaluateWindowSeeded(queries_.at(group.members[0]), wctx, seeds,
                              static_cast<uint32_t>(group.members.size()),
                              pass_ran, tags))
      return;
    if (pass_ran && GroupSharingApplies(group)) NoteSharedGroupPass();
    for (QueryId qid : group.members) ScatterTagCounts(tags, qid, window_results);
  }
}

}  // namespace baseline
}  // namespace gstream

#ifndef GSTREAM_BASELINE_INV_ENGINE_H_
#define GSTREAM_BASELINE_INV_ENGINE_H_

#include <memory>
#include <string>

#include "baseline/inverted_common.h"

namespace gstream {
namespace baseline {

/// INV — the inverted-index baseline (paper §5.1) and its caching extension
/// INV+.
///
/// Answering an update: (1) locate the affected queries through `edgeInd`
/// and keep those whose edge views are all non-empty; (2+3) re-materialize
/// every covering path of each affected query by chaining *full* hash joins
/// over the edge-level views — nothing is reused across updates or across
/// queries — then join the paths on their shared vertices to count
/// embeddings. Newly satisfied work is reported by diffing against the
/// query's previous total (sound: counts are monotone under insertion and
/// every new embedding makes the query affected).
///
/// INV+ keeps the per-view build-phase hash tables in a `JoinCache`; the
/// per-update intermediate results are still recomputed, which is why its
/// gain over INV is modest (paper: ~9%).
class InvEngine : public InvertedIndexEngineBase {
 public:
  explicit InvEngine(bool enable_cache) : InvertedIndexEngineBase(enable_cache) {}

  std::string name() const override { return cache_ ? "INV+" : "INV"; }

 protected:
  /// Registration plus, mid-stream, a snapshot of the query's current
  /// embedding total: INV reports by diffing totals, so the baseline must
  /// start at "now" for a dynamically added query to notify only future
  /// matches (the backfilled base views would otherwise all be reported as
  /// new on the first affecting update).
  void AddQueryImpl(QueryId qid, const QueryPattern& q) override;

  /// Retracts the tuple; counts may have dropped, so the affected queries'
  /// diff baselines are refreshed (deletions cannot trigger notifications).
  UpdateResult ApplyDelete(const EdgeUpdate& u) override;

  /// Window-delta pipeline (single inserts are windows of one): iterates the
  /// window's affected signature groups (DESIGN.md §12), runs one tagged
  /// full evaluation of each group's representative, and fans the histogram
  /// out to every member — the per-position diffs fall out of the provenance
  /// histogram instead of re-evaluating the query once per update.
  void FinalizeWindow(WindowContext& ctx, UpdateResult* window_results) override;

 private:
  /// INV's core evaluation: recompute the query's current embedding total
  /// from the base views (registration snapshot and deletion refresh).
  /// Returns false when the time budget expired mid-evaluation (total is
  /// then unusable).
  bool EvaluateQueryTotal(QueryEntry& entry, uint64_t& total);

  /// One tagged whole-window evaluation of `entry`: recomputes the
  /// end-of-window total and the window-position tag per new assignment.
  /// `pass_ran` is false when the candidate filter skipped the evaluation.
  /// Returns false on a budget abort (outputs are then unusable and the
  /// caller must end the finalize).
  bool EvaluateWindowTagged(QueryEntry& entry, InvWindowContext& wctx,
                            uint32_t probe_weight, bool& pass_ran,
                            std::vector<uint32_t>& tags, uint64_t& total);
};

}  // namespace baseline
}  // namespace gstream

#endif  // GSTREAM_BASELINE_INV_ENGINE_H_

#ifndef GSTREAM_BASELINE_INVERTED_COMMON_H_
#define GSTREAM_BASELINE_INVERTED_COMMON_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "engine/view_engine_base.h"
#include "matview/binding.h"
#include "matview/join_cache.h"
#include "query/path_cover.h"
#include "query/route_index.h"

namespace gstream {
namespace baseline {

/// Shared indexing state of the paper's advanced baselines INV and INC
/// (§5.1, §5.2). Both transform queries into covering paths stored per query
/// (`queryInd`) and build three inverted indexes:
///  * `edgeInd`:   genericized edge pattern -> query ids;
///  * `sourceInd`: source vertex term (literal label or ?var) -> patterns;
///  * `targetInd`: target vertex term -> patterns.
/// Unlike TRIC there is *no* sharing of materialized path state across
/// queries — only the edge-level base views are shared.
class InvertedIndexEngineBase : public ViewEngineBase {
 public:
  bool HasQuery(QueryId qid) const override { return queries_.count(qid) > 0; }
  size_t NumQueries() const override { return queries_.size(); }
  size_t MemoryBytes() const override;

 protected:
  /// `enable_cache` selects the "+" variant (a persistent JoinCache); the
  /// base variants amortize within batch windows only.
  explicit InvertedIndexEngineBase(bool enable_cache);

  void AddQueryImpl(QueryId qid, const QueryPattern& q) override;

  /// Query removal: drops the query's postings from edgeInd (and the
  /// pattern's sourceInd/targetInd entries when the last query using it
  /// goes), releases the shared base-view references, and compacts the
  /// inverted indexes so `MemoryBytes` reflects the GC. INV/INC own no
  /// persistent per-path state, so postings + base views are the whole
  /// story; the "+" variants additionally evict dead views' cached join
  /// indexes via OnRelationEvicted.
  void RemoveQueryImpl(QueryId qid) override;

  /// Lifecycle GC hook: a shared base view is going away — drop the "+"
  /// variant's cached indexes over it.
  void OnRelationEvicted(const Relation* rel) override;

  /// The "+" persistent cache, or the batch window's transient cache.
  JoinIndexSource* IndexSource() {
    return cache_ != nullptr ? static_cast<JoinIndexSource*>(cache_.get())
                             : window_cache();
  }
  /// Batch sharding (ViewEngineBase): a pattern's reach is its base view
  /// plus, per query it can affect, the query's per-update state and every
  /// base view its covering-path (re)materialization scans (INV redoes
  /// whole paths, INC seeds the touched ones — both stay within the query's
  /// signature patterns).
  void BuildPatternReach() override;

  /// Shard-local delta-window context (window-delta pipeline, DESIGN.md §7):
  /// the affected (signature group, window position) pairs accumulated
  /// across the window (DESIGN.md §12). The engine-specific FinalizeWindow
  /// overrides consume them to run one tagged evaluation per (group, window).
  /// Single inserts run the same pipeline as a window of one.
  struct InvWindowContext : WindowContext {
    std::vector<std::pair<uint32_t, uint32_t>> affected_groups;
    std::vector<uint32_t> route_scratch;  ///< Route() output, reused.
  };

  /// Maintenance is identical for INV and INC: append to the base views
  /// (checkpointing them) and record the affected signature groups; every
  /// join is deferred to the engine's FinalizeWindow.
  std::unique_ptr<WindowContext> NewWindowContext() override {
    return std::make_unique<InvWindowContext>();
  }
  void ProcessInsertDelta(const EdgeUpdate& u, WindowContext& ctx,
                          UpdateResult& result) override;

  /// Shared-finalize signature (DESIGN.md §9): per covering path the ordered
  /// shared base-view ids (from the refcounted view registry's pattern ids)
  /// and the path's vertex map (the binding spec), plus the filter spec.
  /// Equal encodings mean identical MaterializeFullPathTagged /
  /// MaterializePathDeltaBatch chains and identical final joins — INV and
  /// INC both qualify, so the hook lives here.
  bool EncodeFinalizeSignature(QueryId qid, std::vector<uint64_t>& out) override;
  /// Pre-interns every signature pattern id on the coordinator thread so the
  /// (possibly pool-parallel) encodes above are pure lookups.
  void PrepareFinalizeSignatures(const std::vector<QueryId>& qids) override;
  void ListQueryIds(std::vector<QueryId>& out) const override;

  /// Rebuilds the group routing postings (DESIGN.md §12): one posting per
  /// (distinct pattern of the group's representative member, group id).
  /// Signature-equal members have identical distinct-pattern sets, so the
  /// representative's set routes the whole group.
  void OnRouteGroupsRebuilt() override;

  struct QueryEntry {
    QueryPattern pattern;
    std::vector<CoveringPath> paths;
    std::vector<std::vector<GenericEdgePattern>> signatures;  ///< Per path.
    std::vector<PathBindingSpec> specs;                       ///< Per path.
    /// Embedding count at the previous evaluation (INV's diff bookkeeping).
    uint64_t last_count = 0;
  };

  /// Sorted unique query ids whose patterns match `u` (via edgeInd): INV's
  /// deletions refresh these queries' diff baselines.
  std::vector<QueryId> AffectedQueries(const EdgeUpdate& u) const;

  /// True when every edge pattern of the query has a non-empty base view
  /// (paper §5.1 answering Step 1: a query is only a match candidate when all
  /// its materialized views are usable).
  bool AllViewsNonEmpty(const QueryEntry& entry) const;

  /// Re-materializes covering path `pi` of `entry` from scratch by chaining
  /// hash joins over the edge-level views (paper §5.1 Step 3) — the untagged
  /// chain behind INV's registration snapshot and deletion refresh.
  /// Returns nullptr when the chain dies or the budget expires.
  std::unique_ptr<Relation> MaterializeFullPath(const QueryEntry& entry, size_t pi,
                                                JoinIndexSource* cache,
                                                size_t& transient_bytes);

  /// Tagged MaterializeFullPath (window-delta pipeline): the returned
  /// relation carries a provenance column — each row's tag is the max
  /// window position over its contributing base-view rows (0 = the row
  /// existed before the window), derived from `prov`'s checkpoints.
  /// `touch_weight` > 1 marks a shared finalize chain standing in for that
  /// many per-query chains (§9; window-cache build decisions stay put).
  std::unique_ptr<Relation> MaterializeFullPathTagged(const QueryEntry& entry,
                                                      size_t pi, JoinIndexSource* cache,
                                                      const WindowProvenance& prov,
                                                      size_t& transient_bytes,
                                                      uint32_t touch_weight = 1);

  /// Materializes only the path rows that use a window update (INC's seeded
  /// evaluation, §5.2): seeds *every* window update in `seeds` ((window
  /// position, update) pairs, ascending) that matches each path position in
  /// one tagged pass and extends left/right over the end-of-window edge
  /// views — one build+probe chain per (path, window). Rows are tagged with
  /// the window position at which sequential per-update evaluation would
  /// have produced them.
  std::unique_ptr<Relation> MaterializePathDeltaBatch(
      const QueryEntry& entry, size_t pi,
      const std::vector<std::pair<uint32_t, const EdgeUpdate*>>& seeds,
      JoinIndexSource* cache, const WindowProvenance& prov, size_t& transient_bytes,
      uint32_t touch_weight = 1);

  std::unique_ptr<JoinCache> cache_;  ///< Non-null for INV+/INC+.
  std::unordered_map<QueryId, QueryEntry> queries_;
  /// Probed with every generalization of every streamed update — flat
  /// open-addressing postings (see flat_map.h).
  FlatMap<GenericEdgePattern, std::vector<QueryId>, GenericEdgePatternHash> edge_ind_;
  /// Vertex term (literal id; kNoVertex = ?var) -> patterns with that source
  /// / target. Kept for the paper's path-exploration structure and memory
  /// accounting; path re-evaluation walks the stored covering paths, which
  /// visits the same edges the index navigation would.
  FlatMap<VertexId, std::vector<GenericEdgePattern>, VertexIdHash> source_ind_;
  FlatMap<VertexId, std::vector<GenericEdgePattern>, VertexIdHash> target_ind_;
  /// Always-current label/class prefilter over the registered patterns,
  /// maintained incrementally per distinct pattern in Add/RemoveQueryImpl —
  /// always current, unlike the group routing postings below (which are only
  /// rebuilt with the signature grouping).
  RoutePrefilter prefilter_;
  /// Routed dispatch (DESIGN.md §12): genericized pattern -> affected
  /// signature-group ids. Posting lengths track distinct query structure,
  /// not tenant count. Rebuilt in OnRouteGroupsRebuilt.
  RouteIndex<uint32_t> group_routes_;
};

/// Greedy extension order over query edges starting from `seed` (most-bound,
/// then most-literal first). A planning utility for update-seeded whole-query
/// evaluation; INC's paper-faithful per-path evaluation does not use it, but
/// it is exercised by tests and available to custom engines.
std::vector<uint32_t> PlanExtensionOrder(const QueryPattern& q, uint32_t seed);

}  // namespace baseline
}  // namespace gstream

#endif  // GSTREAM_BASELINE_INVERTED_COMMON_H_

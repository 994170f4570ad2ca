#ifndef GSTREAM_ENGINE_VIEW_ENGINE_BASE_H_
#define GSTREAM_ENGINE_VIEW_ENGINE_BASE_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <map>

#include "common/flat_map.h"
#include "common/task_scheduler.h"
#include "engine/engine.h"
#include "matview/join_cache.h"
#include "matview/relation.h"
#include "query/edge_pattern.h"

namespace gstream {

/// Shared plumbing of the view-based engines (TRIC/TRIC+/INV/INV+/INC/INC+):
///
///  * the global edge-level materialized views matV[e], one per distinct
///    genericized edge pattern appearing in the query set (§4.1
///    "Materialization") — these are *shared* across queries and across
///    covering paths;
///  * duplicate-update suppression (the edge set has set semantics);
///  * peak-transient accounting: the base algorithms rebuild hash tables and
///    intermediate join results per update and discard them, which dominates
///    their real memory peaks (Fig. 13(c)); we track the high-water mark of
///    that scratch;
///  * sharded batch execution (`ApplyBatch`): a window of consecutive edge
///    insertions is grouped by the footprint of everything each insert's
///    processing can read or write — genericized edge patterns (base views),
///    trie nodes (prefix views), query ids (per-query state). Footprint-
///    disjoint shards commute, so they run concurrently on the engine's
///    work-stealing `TaskScheduler` while each shard replays its members in
///    stream order. Shards are packed into tasks by member count (a hot
///    shard rides alone; small shards coalesce), each task writes into its
///    own full-window result arena, and the coordinator merges the arenas
///    back in task-submission order at the window barrier — positions are
///    task-disjoint, so the merged window is byte-identical to sequential
///    execution regardless of which executor ran what. Deletions and
///    duplicate checks are order-sensitive and global, so deletions act as
///    window barriers and the duplicate pre-pass runs on the coordinator.
///    The footprint/union-find partition is memoized per window shape: the
///    shard member lists are a pure function of the window's
///    *generalization profile* (the per-update sequence of matched
///    registered pattern ids, plus the duplicate mask), so identical-shape
///    windows — the steady state of a homogeneous stream — skip the
///    element-level union-find entirely (see footprint_cache_hits).
///  * window-delta execution (DESIGN.md §7): every insert window splits
///    each update into cheap view maintenance (`ProcessInsertDelta`, run per
///    update in stream order) and the expensive final joins
///    (`FinalizeWindow`, run once per (signature group, window) over the
///    window's accumulated, provenance-tagged deltas). Emitted matches carry
///    the window position they would have been produced at by sequential
///    execution, so grouping them by tag reconstructs byte-identical
///    per-update results. A single insert (`ApplyUpdate`, or a batch window
///    holding one insert) is a window of one: the same pipeline, where every
///    new row belongs to position 1 (TRIC's finalize skips the tags).
///  * shared window finalization and routing (DESIGN.md §9, §12): live
///    queries are grouped by their covering-path join signature — the
///    ordered shared-view ids plus the join/filter spec of the final join
///    (`EncodeFinalizeSignature`). Queries with equal signatures run
///    *identical* finalize computations, so each engine's FinalizeWindow
///    evaluates one member per group per window and fans the per-position
///    counts out to every member — collapsing N per-query passes into one
///    per distinct signature. The groups double as the routing targets. The
///    grouping is incremental: RemoveQuery leaves its group at once, and
///    AddQuery's signature is encoded and joined at the start of the next
///    insert window, on the coordinator before shards fan out. Signature-
///    equal queries always share a shard (their footprints overlap on the
///    very views the signature names), so a group's finalize sees every
///    member's window positions.
class ViewEngineBase : public ContinuousEngine {
 public:
  /// Deletes go to ApplyDelete; an insert runs as a window of one.
  UpdateResult ApplyUpdate(const EdgeUpdate& u) override;
  std::vector<UpdateResult> ApplyBatch(const EdgeUpdate* updates, size_t n) override;

  void SetBatchThreads(int threads) override {
    sched_ = threads > 1 ? std::make_unique<TaskScheduler>(threads) : nullptr;
  }

  uint64_t batch_tasks() const override {
    return batch_tasks_.load(std::memory_order_relaxed);
  }

  uint64_t batch_steals() const override {
    return batch_steals_.load(std::memory_order_relaxed);
  }

  uint64_t footprint_cache_hits() const override {
    return footprint_cache_hits_.load(std::memory_order_relaxed);
  }

  uint64_t final_join_passes() const override {
    return final_join_passes_.load(std::memory_order_relaxed);
  }

  uint64_t shared_finalize_groups() const override {
    return shared_finalize_groups_.load(std::memory_order_relaxed);
  }

  uint64_t routed_candidates() const override {
    return routed_candidates_.load(std::memory_order_relaxed);
  }

  uint64_t prefilter_rejects() const override {
    return prefilter_rejects_.load(std::memory_order_relaxed);
  }

  /// Order-insensitive digest of the shared durable state (see engine.h):
  /// the applied edge set, every base view's (pattern, row count), and the
  /// sorted live query ids. Deterministic across processes and batch/thread
  /// configurations — the ingest recovery protocol compares it against the
  /// snapshot's value after a fast-forward replay. Engine-private structures
  /// (tries, cached indexes) are pure functions of this state plus the
  /// registration order, so the shared layer pins them down.
  uint64_t StateFingerprint() const override;

 protected:
  /// One signature group: the live queries whose finalize signatures are
  /// equal. Every grouped query belongs to exactly one group; groups double
  /// as the routing targets (DESIGN.md §12). A group's id is its index in
  /// finalize_groups(), recycled once the group empties.
  struct FinalizeGroup {
    std::vector<QueryId> members;  ///< Ascending; empty = a free id.
  };

  /// Context of one delta window (or of one shard of it): the provenance
  /// checkpoints of every relation its updates touch, plus the engine's
  /// deferred-finalize state (subclasses extend it). Shard tasks own one
  /// instance each, so no synchronization — shards are footprint-disjoint.
  /// Sequential windows, windows of one included, reuse one coordinator-
  /// owned instance (see Reset).
  struct WindowContext {
    virtual ~WindowContext() = default;
    /// Readies a reused context for the next window, keeping the scratch
    /// capacity. Subclasses extend it to clear their own state.
    virtual void Reset() {
      position = 0;
      prov.Clear();
    }
    uint32_t position = 0;  ///< 1-based window position of the insert in flight.
    /// The window's updates; slot p - 1 is window position p (set by the
    /// coordinator before the first ProcessInsertDelta).
    const EdgeUpdate* window_updates = nullptr;
    uint32_t window_size = 0;  ///< Number of window positions.
    WindowProvenance prov;
    std::vector<uint32_t> tags;  ///< Finalize scratch: one pass's match positions.
  };

  virtual std::unique_ptr<WindowContext> NewWindowContext() = 0;

  /// Delta-path maintenance for one insert (`ctx.position` is set): update
  /// the shared views and routing state, checkpoint touched relations in
  /// `ctx.prov`, and record which queries need finalizing — but defer every
  /// final join to FinalizeWindow. `result` is the update's slot in the
  /// window's result vector; maintenance fills `changed`, FinalizeWindow
  /// adds the per-query counts.
  virtual void ProcessInsertDelta(const EdgeUpdate& u, WindowContext& ctx,
                                  UpdateResult& result) = 0;

  /// Runs the deferred final joins of `ctx`'s shard: one pass per affected
  /// (signature group, window), its match counts scattered for every member
  /// onto `window_results[p - 1]` for window position `p` (tags never cross
  /// shard boundaries — a query's positions are its own shard's members).
  virtual void FinalizeWindow(WindowContext& ctx, UpdateResult* window_results) = 0;

  /// Bumps the final-join pass counter (see final_join_passes).
  void NoteFinalJoinPass() {
    final_join_passes_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Retracts one delete (ApplyUpdate's delete path and ApplyBatch's
  /// window barriers): the engine's paper §4.3 deletion handling.
  virtual UpdateResult ApplyDelete(const EdgeUpdate& u) = 0;

  // ----- shared-finalize planner (DESIGN.md §9) -----

  /// Engine hook: append a canonical encoding of `qid`'s window-finalize
  /// computation — the ordered ids of the shared views its final join reads
  /// plus the join/filter spec (binding schemas, property constraints).
  /// Two queries with equal encodings MUST produce identical FinalizeWindow
  /// outcomes for any window, and a query's encoding must not change while
  /// it is registered (it is re-encoded to find its group on removal).
  /// Coordinator-thread only.
  virtual void EncodeFinalizeSignature(QueryId qid, std::vector<uint64_t>& out) = 0;

  /// Engine hooks: start routing inserts to group `gid` (fired when its
  /// first member creates it) and stop (fired when its last member leaves,
  /// from RemoveQueryImpl while the engine still knows `member`).
  /// Signature-equal members route identically, so `member` speaks for the
  /// whole group. Coordinator-thread only.
  virtual void AddGroupRoutes(uint32_t gid, QueryId member) = 0;
  virtual void RemoveGroupRoutes(uint32_t gid, QueryId member) = 0;

  /// Appends the registered query ids (any order).
  virtual void ListQueryIds(std::vector<QueryId>& out) const = 0;

  /// Query-lifecycle hooks; call first thing in AddQueryImpl /
  /// RemoveQueryImpl (the removed query must still be registered). Both
  /// invalidate the footprint reaches and the window partitions. An added
  /// query waits on a pending list: its signature is encoded and joined at
  /// the next insert window, so registration does no grouping work. A
  /// removed query leaves its group at once; an emptied group drops its
  /// routes and frees its id.
  void OnQueryAdded(QueryId qid);
  void OnQueryRemoved(QueryId qid);

  /// The signature groups, dense by id (routing targets). Immutable while a
  /// window is in flight.
  const std::vector<FinalizeGroup>& finalize_groups() const {
    return finalize_groups_;
  }

  /// Counts one group-level finalize pass that served >= 2 members.
  void NoteSharedGroupPass() {
    shared_finalize_groups_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Counts `n` candidate work items the routing layer handed to evaluation
  /// (signature groups, or (group, covering path) pairs on TRIC).
  /// Thread-safe (shards report concurrently).
  void NoteRoutedCandidates(uint64_t n) {
    if (n != 0) routed_candidates_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Counts one streamed update rejected by the O(words) routing prefilter.
  void NotePrefilterReject() {
    prefilter_rejects_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Canonical encoding of the filter half of a finalize signature: the
  /// assignment arity and the §4.3 property constraints. Shared by every
  /// engine's EncodeFinalizeSignature so the filter spec cannot diverge.
  static void AppendFilterSignature(const QueryPattern& q, std::vector<uint64_t>& out);

  /// Scatters one query's finalize output back onto the per-update results:
  /// sorts `tags` (1-based window positions, one per new assignment) in
  /// place and adds one AddQueryCount per distinct position to its result
  /// slot. A group fan-out scatters the same vector for every member. Shared
  /// by every engine's FinalizeWindow so the attribution logic cannot
  /// diverge between families.
  static void ScatterTagCounts(std::vector<uint32_t>& tags, QueryId qid,
                               UpdateResult* window_results);
  /// Element ids of one insert's read/write footprint. The three namespaces
  /// share one id space via a 2-bit tag in the low bits.
  using Footprint = std::vector<uint64_t>;
  static uint64_t PatternElem(uint32_t pattern_id) {
    return (static_cast<uint64_t>(pattern_id) << 2) | 0;
  }
  static uint64_t NodeElem(uint64_t node_seq) { return (node_seq << 2) | 1; }
  static uint64_t QueryElem(QueryId qid) {
    return (static_cast<uint64_t>(qid) << 2) | 2;
  }

  /// Appends every element the processing of insert `u` may read or write:
  /// the precomputed per-pattern reaches of `u`'s ≤4 generalizations (lazily
  /// rebuilt via BuildPatternReach after AddQuery — the routing indexes are
  /// immutable while updates stream, so reaches are stable across a window).
  /// Over-approximates (a missed element would break exactness). Being a
  /// pure function of the matched registered pattern ids is what lets the
  /// window partition cache key on exactly those ids.
  void CollectFootprint(const EdgeUpdate& u, Footprint& out);

  /// Rebuilds `pattern_reach_` (via BuildPatternReach) when dirty.
  /// Coordinator-thread only.
  void EnsureReach();

  /// Fills `pattern_reach_`: for every *registered* genericized pattern,
  /// every element an insert matching that pattern can read or write
  /// (patterns absent from the map are unregistered — no base view, no
  /// index entries — and contribute nothing).
  virtual void BuildPatternReach() = 0;

  /// Opt-in (engine constructor) for the base algorithms: inside a window
  /// of two or more inserts, `window_cache()` returns a transient
  /// WindowJoinCache that amortizes repeated join builds across the
  /// window's updates (results are unchanged — an indexed equi-join emits
  /// exactly the scan join's rows). In a window of one it stays null,
  /// preserving the sequential base-engine cost model.
  void EnableWindowCache() { window_cache_enabled_ = true; }
  WindowJoinCache* window_cache() const { return window_cache_.get(); }

  /// Stable small id for a genericized edge pattern (footprint elements).
  /// Coordinator-thread only.
  uint32_t PatternId(const GenericEdgePattern& p) {
    uint32_t& id = pattern_ids_.GetOrCreate(p);
    if (id == 0) id = ++next_pattern_id_;
    return id;
  }

  /// The base view for `p`, created empty on first use (at query indexing).
  Relation* GetOrCreateBaseView(const GenericEdgePattern& p);

  /// The base view for `p`, or nullptr when no query uses this pattern.
  Relation* FindBaseView(const GenericEdgePattern& p) const;

  /// Query-lifecycle reference counting over the shared base views: each
  /// registered query holds one reference per pattern occurrence it indexed
  /// (engines choose the granularity — per signature element for TRIC, per
  /// distinct edge pattern for INV/INC — and must release symmetrically).
  /// `RefBaseView` creates the view on first use; `UnrefBaseView` destroys
  /// it when the last reference goes, after announcing the doomed relation
  /// through `OnRelationEvicted` so engines drop dependent cached indexes.
  Relation* RefBaseView(const GenericEdgePattern& p);
  void UnrefBaseView(const GenericEdgePattern& p);

  /// Hook: `rel` (a shared base view, until now reachable through
  /// FindBaseView) is about to be destroyed by the lifecycle GC. Engines
  /// owning a JoinCache evict its indexes here. Default: nothing.
  virtual void OnRelationEvicted(const Relation* rel) { (void)rel; }

  /// Releases tombstoned/slack capacity of the shared routing structures
  /// after a removal (pattern-id table today). Engines call it at the end
  /// of RemoveQueryImpl, after compacting their own indexes.
  void CompactSharedState();

  /// Records `u` into every existing base view whose pattern it satisfies
  /// (up to the 4 generalizations). With a non-null `ctx` (delta windows)
  /// each touched view is checkpointed at `ctx->position` first, so the
  /// appended rows carry the right window tags.
  void AppendToBaseViews(const EdgeUpdate& u, WindowContext* ctx = nullptr);

  /// Retracts `u`'s tuple from every matching base view and forgets the
  /// edge (paper §4.3 deletions). Returns false when the edge was absent.
  bool RemoveFromBaseViews(const EdgeUpdate& u);

  /// Returns true (and remembers the edge) when `u` was already applied.
  bool IsDuplicateUpdate(const EdgeUpdate& u);

  /// Tracks the largest transient join scratch seen in one update.
  /// Thread-safe (shards report concurrently).
  void NotePeakTransient(size_t bytes) {
    size_t cur = peak_transient_bytes_.load(std::memory_order_relaxed);
    while (bytes > cur && !peak_transient_bytes_.compare_exchange_weak(
                              cur, bytes, std::memory_order_relaxed)) {
    }
  }

  /// Bytes of base views + seen-edge set + transient high-water mark.
  size_t SharedMemoryBytes() const;

  std::unordered_map<GenericEdgePattern, std::unique_ptr<Relation>,
                     GenericEdgePatternHash>
      base_views_;
  /// Live query references per base-view pattern (see RefBaseView).
  std::unordered_map<GenericEdgePattern, uint32_t, GenericEdgePatternHash>
      base_view_refs_;
  std::unordered_set<EdgeUpdate, EdgeKeyHash, EdgeKeyEq> seen_edges_;
  std::atomic<size_t> peak_transient_bytes_{0};
  /// Work-stealing batch scheduler; non-null after SetBatchThreads(>1).
  std::unique_ptr<TaskScheduler> sched_;
  /// Per-pattern reach aggregates; see CollectFootprint/BuildPatternReach.
  std::unordered_map<GenericEdgePattern, Footprint, GenericEdgePatternHash>
      pattern_reach_;

 private:
  /// Executes the delete-free run `updates[0..count)`, writing one result
  /// per update to the default-constructed slots `out[0..count)`. Returns
  /// how many results it produced: fewer than `count` only when the budget
  /// tripped mid-window (the unprocessed suffix was dropped, and the last
  /// produced result is flagged timed_out). The outer function owns the
  /// window-cache lifecycle around the inner executor.
  size_t RunInsertWindow(const EdgeUpdate* updates, size_t count, UpdateResult* out);
  size_t RunInsertWindowImpl(const EdgeUpdate* updates, size_t count,
                             UpdateResult* out);

  /// Encodes the pending queries' signatures and joins them to their groups
  /// (creating and routing new ones). Coordinator-thread only; runs at the
  /// start of every insert window, so shard threads read the groups
  /// immutably.
  void JoinPendingGroups();

  /// Invalidates (and releases) the per-pattern reaches and the window
  /// partitions keyed on them; CollectFootprint rebuilds lazily.
  void MarkReachDirty() {
    reach_dirty_ = true;
    pattern_reach_.clear();
    // The cached window partitions are keyed on pattern ids whose reaches
    // just changed (and whose ids may recycle) — exactly as stale as the
    // reaches themselves.
    partition_cache_.clear();
  }

  /// One memoized window partition: the footprint shards' member lists
  /// (window slot indices, ascending within and across shards). Keyed by the
  /// window's generalization profile — see RunInsertWindowImpl.
  struct WindowPartition {
    std::vector<std::vector<uint32_t>> shard_members;
  };

  FlatMap<GenericEdgePattern, uint32_t, GenericEdgePatternHash> pattern_ids_;
  uint32_t next_pattern_id_ = 0;
  bool reach_dirty_ = true;
  /// Generalization-profile -> shard partition memo. Full-key comparison (a
  /// hash collision here would merge/split shards — a correctness bug, not a
  /// perf miss); cleared with the reaches (MarkReachDirty) and bounded by
  /// kPartitionCacheMax.
  std::map<std::vector<uint64_t>, WindowPartition> partition_cache_;
  bool window_cache_enabled_ = false;
  std::unique_ptr<WindowJoinCache> window_cache_;
  std::atomic<uint64_t> final_join_passes_{0};
  std::atomic<uint64_t> shared_finalize_groups_{0};
  std::atomic<uint64_t> routed_candidates_{0};
  std::atomic<uint64_t> prefilter_rejects_{0};
  std::atomic<uint64_t> batch_tasks_{0};
  std::atomic<uint64_t> batch_steals_{0};
  std::atomic<uint64_t> footprint_cache_hits_{0};

  /// Signature-group planner state (shared finalization + routing targets),
  /// maintained on the coordinator; immutable while a window is in flight.
  /// Keys compare in full (no hashing shortcut): a spurious collision would
  /// fan one query's results out to an unrelated query.
  std::vector<FinalizeGroup> finalize_groups_;
  std::vector<uint32_t> free_group_ids_;
  std::map<std::vector<uint64_t>, uint32_t> group_ids_;  ///< Signature -> group id.
  std::vector<QueryId> pending_queries_;  ///< Registered, not yet grouped.
  std::vector<uint64_t> signature_scratch_;

  /// Coordinator-owned scratch of sequential windows (windows of one
  /// included): the reused context and the duplicate mask.
  std::unique_ptr<WindowContext> sequential_ctx_;
  std::vector<uint8_t> dup_scratch_;
};

}  // namespace gstream

#endif  // GSTREAM_ENGINE_VIEW_ENGINE_BASE_H_

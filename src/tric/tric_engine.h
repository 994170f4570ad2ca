#ifndef GSTREAM_TRIC_TRIC_ENGINE_H_
#define GSTREAM_TRIC_TRIC_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/view_engine_base.h"
#include "matview/binding.h"
#include "matview/join_cache.h"
#include "query/path_cover.h"
#include "tric/trie.h"

namespace gstream {
namespace tric {

/// TRIC — TRIe-based Clustering (paper §4), the system's primary
/// contribution, plus its caching extension TRIC+ (§4.2 "Caching").
///
/// Indexing phase (§4.1): each query is decomposed into covering paths
/// (Definition 4.2); the genericized paths are inserted into a trie forest so
/// queries with common structural/attribute restrictions share both trie
/// nodes and the per-node materialized prefix views.
///
/// Answering phase (§4.2): an update is routed through the node-granular
/// `edgeInd` to the trie nodes storing a matching pattern. Each matching
/// node joins its parent's prefix view with the single update tuple (never a
/// full view-by-view join) and the resulting delta cascades down the
/// sub-trie, pruning branches whose delta is empty. Matching nodes are
/// processed top-down so repeated patterns along one trie path (BioGRID-style
/// chains) stay exact; set-semantics views absorb re-derivations. Queries
/// whose covering paths received delta rows are then finalized by joining the
/// affected paths' deltas against the other paths' full views on the shared
/// original-query vertices recorded at indexing time (§4.1 "Variable
/// Handling").
///
/// TRIC+ passes a `JoinCache` so every hash table built for a join is kept
/// and maintained incrementally instead of rebuilt per operation.
class TricEngine : public ViewEngineBase {
 public:
  /// Engine variants. Beyond the paper's TRIC/TRIC+ pair, two ablations
  /// isolate the design choices DESIGN.md calls out:
  ///  * `clustering = false` disables trie prefix sharing — every covering
  ///    path gets a private chain of nodes and views (quantifies the gain of
  ///    §4.1 Step 2's clustering);
  ///  * `per_edge_paths = true` replaces the covering-path decomposition
  ///    with one single-edge path per query edge (quantifies the gain of
  ///    §4.1 Step 1's path covering).
  struct Options {
    bool cache = false;
    bool clustering = true;
    bool per_edge_paths = false;
  };

  /// `enable_cache` selects TRIC+ behaviour.
  explicit TricEngine(bool enable_cache)
      : TricEngine(Options{enable_cache, true, false}) {}
  explicit TricEngine(const Options& options);

  std::string name() const override;
  bool HasQuery(QueryId qid) const override { return queries_.count(qid) > 0; }
  size_t NumQueries() const override { return queries_.size(); }
  size_t MemoryBytes() const override;

  /// Diagnostics for tests and the ablation bench.
  const TrieForest& forest() const { return forest_; }

 protected:
  void AddQueryImpl(QueryId qid, const QueryPattern& q) override;

  /// Query removal (paper §3.2's dynamic QDB): drops the query's path
  /// references from the trie, garbage-collects the unpinned suffix nodes
  /// and their materialized views (shared prefixes survive), evicts the
  /// dead views' cached join indexes, releases the base-view references,
  /// and compacts the routing indexes so `MemoryBytes` reflects the GC.
  void RemoveQueryImpl(QueryId qid) override;

  /// Lifecycle GC hook: a shared base view is going away — drop TRIC+'s
  /// cached indexes over it.
  void OnRelationEvicted(const Relation* rel) override;

  /// Batch sharding (ViewEngineBase): a pattern's reach is its matching trie
  /// nodes, everything below them (cascades write those views and read their
  /// base views), the parents they join against, and the queries they can
  /// finalize (whose *other* covering-path terminals the final join reads).
  void BuildPatternReach() override;

  /// Window-delta pipeline (DESIGN.md §7), for every insert: maintenance
  /// routes + cascades per update (checkpointing touched node views),
  /// FinalizeWindow expands the affected terminals into (signature group,
  /// path idx) pairs via their route annotations (DESIGN.md §12) and runs
  /// one final-join pass per affected group, fanning the matches out to
  /// every member (§9).
  std::unique_ptr<WindowContext> NewWindowContext() override;
  void ProcessInsertDelta(const EdgeUpdate& u, WindowContext& ctx,
                          UpdateResult& result) override;
  void FinalizeWindow(WindowContext& ctx, UpdateResult* window_results) override;

  /// Edge deletion (paper §4.3): retracts the tuple from the base views,
  /// then walks the affected tries removing every prefix-view row that used
  /// the deleted edge at any matching depth. Exact because a view row's edge
  /// instances are fully determined by its vertex sequence.
  UpdateResult ApplyDelete(const EdgeUpdate& u) override;

  /// Shared-finalize signature (DESIGN.md §9): per covering path the shared
  /// terminal node (clustering maps signature-equal paths to one node, so
  /// the node id names the ordered prefix-view chain) and the path-position
  /// -> query-vertex map (the binding spec), plus the filter spec. Queries
  /// with equal encodings join the same terminal views with the same
  /// schemas and constraints.
  void EncodeFinalizeSignature(QueryId qid, std::vector<uint64_t>& out) override;
  void ListQueryIds(std::vector<QueryId>& out) const override;

  /// Terminal-node routing annotations (DESIGN.md §12): a group's
  /// (group id, path index) pairs live on its members' shared terminals.
  void AddGroupRoutes(uint32_t gid, QueryId member) override;
  void RemoveGroupRoutes(uint32_t gid, QueryId member) override;

 private:
  struct PathInfo {
    TrieNode* terminal = nullptr;
    std::vector<uint32_t> pos_to_vertex;  ///< Path position -> query vertex.
    PathBindingSpec spec;
    /// For cyclic paths (repeated vertices): the incrementally maintained
    /// filtered+projected copy of the terminal view, schema = spec.schema.
    std::unique_ptr<Relation> filtered;
    size_t filtered_upto = 0;
  };

  struct QueryEntry {
    QueryPattern pattern;
    std::vector<PathInfo> paths;
  };

  /// Window context: the affected terminals accumulated across the window
  /// (deduplicated via TrieNode::affected_epoch against `window_epoch`, a
  /// fresh draw per window) plus the routing and finalize scratch.
  struct TricWindowContext : WindowContext {
    explicit TricWindowContext(std::atomic<uint64_t>& epochs) : epochs(epochs) {
      window_epoch = epochs.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    void Reset() override {
      WindowContext::Reset();
      window_epoch = epochs.fetch_add(1, std::memory_order_relaxed) + 1;
      affected_terminals.clear();
    }
    std::atomic<uint64_t>& epochs;
    uint64_t window_epoch = 0;
    std::vector<TrieNode*> affected_terminals;
    std::vector<TrieNode*> matching;  ///< RouteNodes output, one update's.
    std::vector<std::pair<uint32_t, uint32_t>> affected;  ///< (group id, path idx).
    std::vector<uint32_t> path_idxs;  ///< One group's affected paths.
  };

  /// Allocates a freshly created trie node's view and backfills it from its
  /// parent's view (best-effort for queries registered mid-stream).
  void InitNodeView(TrieNode* node);

  /// Joins `node`'s parent view (or the update itself at roots) with `u`,
  /// appends the delta and cascades it down the sub-trie.
  void ProcessMatchingNode(TrieNode* node, const EdgeUpdate& u,
                           TricWindowContext& wctx);

  /// Extends rows [lo, hi) of `node`'s view into each child via the child's
  /// base edge view; recurses while deltas are non-empty.
  void Cascade(TrieNode* node, size_t lo, size_t hi, TricWindowContext& wctx);

  /// Bookkeeping after a node's view grew from `rows_before`: terminal
  /// views (the only ones the final joins read) are checkpointed at the
  /// current window position and enter the window's affected set.
  void NoteGrowth(TrieNode* node, size_t rows_before, TricWindowContext& wctx);

  const std::vector<uint32_t>& PathSchema(const PathInfo& info) const;

  /// The full binding range of a path plus its rows' window tags: the
  /// terminal view when acyclic; for cyclic paths `info.filtered`, caught up
  /// with its terminal view first (checkpointing the caught-up rows, so
  /// they tag correctly too).
  std::pair<RowRange, RowTags> FullPathRange(PathInfo& info, TricWindowContext& wctx);

  /// One whole-window final join of `entry` seeded from the covering paths
  /// in `path_idxs`, appending each new assignment's window position to
  /// `tags`. `pass_ran` is false when the feasibility gate skipped the
  /// evaluation. Returns false on a budget abort (the caller must end the
  /// finalize).
  bool EvaluateWindow(QueryEntry& entry, const std::vector<uint32_t>& path_idxs,
                      TricWindowContext& wctx, uint32_t probe_weight,
                      bool& pass_ran, std::vector<uint32_t>& tags);

  void DeleteCascade(TrieNode* node, const EdgeUpdate& u,
                     std::vector<uint32_t>& depths);

  bool cache_enabled() const { return cache_ != nullptr; }

  /// Maintained index over `rel` column `col`: TRIC+'s persistent JoinCache,
  /// or — inside a batch window for plain TRIC — the transient window cache
  /// (null on its first touch of a view, so single-touch joins keep the
  /// paper's scan plan). Null otherwise. `touch_weight` > 1 marks a shared
  /// finalize probe standing in for that many per-query probes (§9).
  HashIndex* JoinIndexFor(const Relation* rel, uint32_t col,
                          uint32_t touch_weight = 1) {
    if (cache_ != nullptr) return cache_->Get(rel, col);
    WindowJoinCache* wc = window_cache();
    return wc != nullptr ? wc->Get(rel, col, touch_weight) : nullptr;
  }

  Options options_;
  TrieForest forest_;
  std::unordered_map<QueryId, QueryEntry> queries_;
  std::unique_ptr<JoinCache> cache_;  ///< Non-null for TRIC+.

  /// Window-epoch allocator; atomic so concurrent batch shards draw unique
  /// epochs.
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace tric
}  // namespace gstream

#endif  // GSTREAM_TRIC_TRIC_ENGINE_H_

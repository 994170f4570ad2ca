#ifndef GSTREAM_TRIC_TRIE_H_
#define GSTREAM_TRIC_TRIE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "matview/relation.h"
#include "query/edge_pattern.h"
#include "query/route_index.h"

namespace gstream {
namespace tric {

/// Reference to one covering path of one query (stored at the trie node where
/// the path terminates — paper Fig. 5 line 9: "store the query id at the last
/// node of the trie path").
struct PathRef {
  QueryId qid;
  uint32_t path_idx;
};

/// One node of the trie forest. A root-to-node path spells a sequence of
/// genericized edge patterns; `view` materializes the chain join of those
/// edges' base views (paper §4.2: "a trie path represents a series of joined
/// materialized views"), so its arity is depth + 2 (one column per path
/// vertex).
struct TrieNode {
  GenericEdgePattern pattern;
  TrieNode* parent = nullptr;  ///< Null for roots.
  uint32_t depth = 0;          ///< Root depth is 0.
  uint64_t seq = 0;            ///< Creation sequence (deterministic ordering).
  std::vector<std::unique_ptr<TrieNode>> children;
  std::unique_ptr<Relation> view;
  std::vector<PathRef> paths;  ///< Covering paths terminating here.

  /// Delta bookkeeping for the current update epoch: rows appended during the
  /// epoch are [delta_begin, view->NumRows()).
  uint64_t epoch = 0;
  size_t delta_begin = 0;
  uint64_t affected_epoch = 0;  ///< Last epoch this node entered the affected set.
  /// Last delta-window epoch this node entered the *window* affected set
  /// (window-delta pipeline; written only by the node's owning shard).
  uint64_t window_affected_epoch = 0;

  /// Window-finalize projection of `paths` (DESIGN.md §12): the signature
  /// groups whose representative member has a covering path terminating here,
  /// as (group id, representative's path index) pairs. Valid only while
  /// `route_stamp` equals the engine's group-rebuild stamp — stale lists are
  /// lazily rebuilt, so query churn never walks the forest.
  uint64_t route_stamp = 0;
  std::vector<std::pair<uint32_t, uint32_t>> route_groups;

  size_t MemoryBytes() const;
};

/// The trie forest with its two access paths (paper Fig. 6):
///  * `rootInd`: first edge pattern -> trie root;
///  * a node-granular `edgeInd`: edge pattern -> every trie node storing it.
///    (The paper stores pattern -> trie roots and locates nodes by DFS; the
///    node-granular index visits exactly the same nodes without re-walking
///    unaffected sub-tries — pruning by empty views still happens because a
///    node under an empty ancestor joins against an empty parent view.)
class TrieForest {
 public:
  /// Inserts a covering-path signature, reusing the longest existing prefix
  /// (paper Fig. 5 lines 3-8). `on_create` runs for each newly created node
  /// (engine hook to allocate and backfill its view). Returns the terminal
  /// node. With `share == false` no prefix reuse happens — every call builds
  /// a private root-to-leaf chain (the no-clustering ablation; answering
  /// still works because the node index tracks every node).
  TrieNode* InsertPath(const std::vector<GenericEdgePattern>& sig,
                       const std::function<void(TrieNode*)>& on_create,
                       bool share = true);

  /// Removes the covering-path reference `(qid, path_idx)` stored at
  /// `terminal` and garbage-collects the now-unpinned suffix: starting at
  /// the terminal, every node left with no stored paths and no children is
  /// destroyed bottom-up, stopping at the first ancestor still pinned — so
  /// shared covering-path prefixes stay alive for surviving queries. A
  /// node's pin count is `paths.size() + children.size()`: the trie's
  /// reference count, maintained implicitly by the child lists and the
  /// per-node path registry. `on_destroy` runs for each node just before
  /// its destruction (engine hook: evict join indexes over the node's view).
  /// Checks that the reference exists.
  void RemovePathRef(TrieNode* terminal, QueryId qid, uint32_t path_idx,
                     const std::function<void(TrieNode*)>& on_destroy);

  /// Releases tombstoned/slack capacity of rootInd and edgeInd after a
  /// removal wave (one rehash each — call once per RemoveQuery, not per
  /// path). Invalidates pointers previously returned by NodesFor.
  void CompactIndexes();

  /// Nodes whose stored pattern equals `p`, in creation order; null when
  /// none. The returned pointer is into flat-map slot storage and is
  /// invalidated by the next InsertPath / RemovePathRef / CompactIndexes
  /// (rehash and erase move slots) — copy the node list out before mutating
  /// the forest.
  const std::vector<TrieNode*>* NodesFor(const GenericEdgePattern& p) const;

  /// O(words) routing prefilter: false when no live trie node's pattern can
  /// match `u` (no node stores `u`'s label at all).
  bool MayMatch(const EdgeUpdate& u) const { return node_ind_.MayMatch(u); }

  /// Appends every node whose stored pattern `u` satisfies (the union of
  /// NodesFor over `u`'s live generalizations, deduplicated) and returns the
  /// count. Probes only the endpoint classes the prefilter records for
  /// `u`'s label — the routed replacement for the 4-way NodesFor fan-out.
  size_t RouteNodes(const EdgeUpdate& u, std::vector<TrieNode*>& out) const {
    return node_ind_.Route(u, out);
  }

  size_t NumTries() const { return roots_.size(); }
  size_t NumNodes() const { return num_nodes_; }

  /// Sum of structural bytes + all node views.
  size_t MemoryBytes() const;

  /// Iterates over every node (tests/diagnostics).
  void ForEachNode(const std::function<void(const TrieNode&)>& fn) const;

 private:
  /// rootInd lives in a flat open-addressing map; edgeInd is the shared
  /// RouteIndex (same SIMD flat-map family plus the label/class prefilter).
  /// Both are probed on every streamed update (root lookup, node routing),
  /// so they share the data plane's container family (see flat_map.h).
  FlatMap<GenericEdgePattern, std::unique_ptr<TrieNode>, GenericEdgePatternHash>
      roots_;
  std::vector<std::unique_ptr<TrieNode>> extra_roots_;  ///< No-sharing chains.
  RouteIndex<TrieNode*> node_ind_;
  size_t num_nodes_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace tric
}  // namespace gstream

#endif  // GSTREAM_TRIC_TRIE_H_

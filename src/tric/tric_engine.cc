#include "tric/tric_engine.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/mem_tracker.h"

namespace gstream {
namespace tric {

TricEngine::TricEngine(const Options& options)
    : options_(options),
      cache_(options.cache ? std::make_unique<JoinCache>() : nullptr) {
  // Plain TRIC rebuilds join tables per update; batch windows may amortize
  // them (transiently — see ViewEngineBase::EnableWindowCache).
  if (!options.cache) EnableWindowCache();
}

std::string TricEngine::name() const {
  std::string name = cache_ ? "TRIC+" : "TRIC";
  if (!options_.clustering) name += "(nocluster)";
  if (options_.per_edge_paths) name += "(peredge)";
  return name;
}

void TricEngine::AddQueryImpl(QueryId qid, const QueryPattern& q) {
  OnQueryAdded(qid);

  QueryEntry entry;
  entry.pattern = q;

  // Step 1 (paper §4.1): extract the covering paths (or the per-edge
  // decomposition for the ablation).
  std::vector<CoveringPath> paths;
  if (options_.per_edge_paths) {
    for (uint32_t e = 0; e < q.NumEdges(); ++e) {
      CoveringPath p;
      p.edges = {e};
      p.vertices = {q.edge(e).src, q.edge(e).dst};
      paths.push_back(std::move(p));
    }
  } else {
    paths = ExtractCoveringPaths(q);
  }

  // Step 2: index each genericized path in the trie forest. Base views are
  // reference-counted per signature element; RemoveQueryImpl releases the
  // same references by re-walking the trie chains.
  for (uint32_t pi = 0; pi < paths.size(); ++pi) {
    std::vector<GenericEdgePattern> sig = GenericSignature(q, paths[pi]);
    for (const auto& p : sig) RefBaseView(p);
    TrieNode* terminal = forest_.InsertPath(
        sig, [this](TrieNode* n) { InitNodeView(n); }, options_.clustering);
    terminal->paths.push_back(PathRef{qid, pi});

    PathInfo info;
    info.terminal = terminal;
    info.pos_to_vertex = paths[pi].vertices;
    info.spec = PathBindingSpec::For(info.pos_to_vertex);
    if (info.spec.has_repeats())
      info.filtered =
          std::make_unique<Relation>(static_cast<uint32_t>(info.spec.schema.size()));
    entry.paths.push_back(std::move(info));
  }
  queries_.emplace(qid, std::move(entry));
}

void TricEngine::RemoveQueryImpl(QueryId qid) {
  OnQueryRemoved(qid);
  QueryEntry entry = std::move(queries_.at(qid));
  queries_.erase(qid);

  for (uint32_t pi = 0; pi < entry.paths.size(); ++pi) {
    PathInfo& info = entry.paths[pi];

    // The path's signature, reconstructed from its trie chain (identical to
    // the GenericSignature AddQueryImpl referenced, reversed): one base-view
    // release per element keeps the refcounts symmetric.
    std::vector<GenericEdgePattern> sig;
    for (const TrieNode* n = info.terminal; n != nullptr; n = n->parent)
      sig.push_back(n->pattern);

    // Unpin the covering path; suffix nodes nothing else pins are destroyed
    // together with their prefix views (paper Fig. 5 in reverse: the
    // deepest exclusively-owned node first, stopping at the shared prefix).
    forest_.RemovePathRef(info.terminal, qid, pi, [this](TrieNode* dead) {
      if (cache_ != nullptr) cache_->Evict(dead->view.get());
    });

    // Cyclic paths keep a per-query filtered projection; its indexes die
    // with the query too.
    if (cache_ != nullptr && info.filtered != nullptr)
      cache_->Evict(info.filtered.get());

    for (const auto& p : sig) UnrefBaseView(p);
  }

  // One compaction per removal (not per path/eviction): the routing indexes
  // and cache release their tombstoned capacity, making the GC visible to
  // MemoryBytes.
  forest_.CompactIndexes();
  if (cache_ != nullptr) cache_->Compact();
  CompactSharedState();
}

void TricEngine::OnRelationEvicted(const Relation* rel) {
  if (cache_ != nullptr) cache_->Evict(rel);
}

void TricEngine::InitNodeView(TrieNode* node) {
  node->view = std::make_unique<Relation>(node->depth + 2);
  Relation* base = GetOrCreateBaseView(node->pattern);
  if (base->Empty()) return;
  // Backfill from already-materialized shared state (queries registered
  // mid-stream see the data their shared prefixes retained).
  if (node->parent == nullptr) {
    node->view->AppendAll(*base);
  } else if (!node->parent->view->Empty()) {
    ExtendRight(AllRows(*node->parent->view), *base,
                cache_ ? cache_->Get(base, 0) : nullptr, *node->view);
  }
}

void TricEngine::NoteGrowth(TrieNode* node, size_t rows_before,
                            TricWindowContext& wctx) {
  // Only terminal views are ever read by the final joins, and only actual
  // growth needs a checkpoint — empty touches stay off the books.
  if (node->paths.empty()) return;
  wctx.prov.Checkpoint(node->view.get(), wctx.position, rows_before);
  if (node->affected_epoch == wctx.window_epoch) return;
  node->affected_epoch = wctx.window_epoch;
  wctx.affected_terminals.push_back(node);
}

void TricEngine::ProcessMatchingNode(TrieNode* node, const EdgeUpdate& u,
                                     TricWindowContext& wctx) {
  Relation* view = node->view.get();
  const size_t before = view->NumRows();

  if (node->parent == nullptr) {
    const VertexId row[2] = {u.src, u.dst};
    view->Append(row);
  } else {
    Relation* pview = node->parent->view.get();
    // Join the parent's (current) prefix view against the single update
    // tuple — never a full view-by-view join (paper §4.2 Step 2). TRIC scans
    // the parent view; TRIC+ probes a maintained index on its tail column
    // (as does plain TRIC within a batch window, from the second touch on).
    ExtendRightSingle(AllRows(*pview), u.src, u.dst,
                      JoinIndexFor(pview, pview->arity() - 1), *view);
  }

  const size_t after = view->NumRows();
  if (after == before) return;
  NoteGrowth(node, before, wctx);
  Cascade(node, before, after, wctx);
}

void TricEngine::Cascade(TrieNode* node, size_t lo, size_t hi,
                         TricWindowContext& wctx) {
  for (const auto& child_ptr : node->children) {
    if (BudgetExceeded()) return;
    TrieNode* child = child_ptr.get();
    Relation* base = FindBaseView(child->pattern);
    GS_DCHECK(base != nullptr);
    if (base->Empty()) continue;  // prune: sub-trie cannot produce results
    const size_t before = child->view->NumRows();
    ExtendRight(RowRange{node->view.get(), lo, hi}, *base, JoinIndexFor(base, 0),
                *child->view);
    const size_t after = child->view->NumRows();
    if (after == before) continue;  // prune: empty delta stops this branch
    NoteGrowth(child, before, wctx);
    Cascade(child, before, after, wctx);
  }
}

const std::vector<uint32_t>& TricEngine::PathSchema(const PathInfo& info) const {
  // Acyclic paths: positions are exactly the distinct vertices, so the view
  // doubles as the binding relation; cyclic paths use the filtered copy.
  return info.spec.has_repeats() ? info.spec.schema : info.pos_to_vertex;
}

std::unique_ptr<ViewEngineBase::WindowContext> TricEngine::NewWindowContext() {
  return std::make_unique<TricWindowContext>(epoch_);
}

void TricEngine::ProcessInsertDelta(const EdgeUpdate& u, WindowContext& ctx,
                                    UpdateResult& result) {
  TricWindowContext& wctx = static_cast<TricWindowContext&>(ctx);
  result.changed = true;

  // Routing prefilter (DESIGN.md §12): no trie node's pattern carries this
  // label. Base-view patterns are a subset of the node patterns (every
  // signature element becomes a node), so there is nothing to maintain at
  // all — the whole update is an O(words) reject.
  if (!forest_.MayMatch(u)) {
    NotePrefilterReject();
    return;
  }

  // Record the update in every shared edge-level view it satisfies, then
  // route it (paper Fig. 8 lines 1-7) to the matching trie nodes via the
  // node-granular edgeInd — class-mask-gated, so only the endpoint
  // generalizations some registered pattern uses are probed. Matching nodes
  // run top-down; the final joins wait for FinalizeWindow.
  AppendToBaseViews(u);
  wctx.matching.clear();
  forest_.RouteNodes(u, wctx.matching);
  std::sort(wctx.matching.begin(), wctx.matching.end(),
            [](const TrieNode* a, const TrieNode* b) {
              return a->depth != b->depth ? a->depth < b->depth : a->seq < b->seq;
            });
  for (TrieNode* node : wctx.matching) {
    if (BudgetExceeded()) return;  // the caller flags the timeout
    ProcessMatchingNode(node, u, wctx);
  }
}

std::pair<RowRange, RowTags> TricEngine::FullPathRange(PathInfo& info,
                                                      TricWindowContext& wctx) {
  Relation* view = info.terminal->view.get();
  if (!info.spec.has_repeats())
    return {AllRows(*view), wctx.prov.TagsFor(view)};

  // Cyclic path: catch the filtered projection up, mirroring each view
  // row's window tag onto the filtered relation via checkpoints (view rows
  // arrive in window order, so tags ascend and checkpointing is valid).
  RowTags view_tags = wctx.prov.TagsFor(view);
  std::vector<VertexId> row(info.spec.schema.size());
  for (size_t i = info.filtered_upto; i < view->NumRows(); ++i) {
    const VertexId* r = view->Row(i);
    bool ok = true;
    for (const auto& [pa, pb] : info.spec.eq_checks) {
      if (r[pa] != r[pb]) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (size_t c = 0; c < info.spec.src_pos.size(); ++c) row[c] = r[info.spec.src_pos[c]];
    const uint32_t tag = view_tags.TagOf(i);
    if (tag > 0) wctx.prov.Checkpoint(info.filtered.get(), tag);
    info.filtered->Append(row.data());
  }
  info.filtered_upto = view->NumRows();
  return {AllRows(*info.filtered), wctx.prov.TagsFor(info.filtered.get())};
}

void TricEngine::EncodeFinalizeSignature(QueryId qid, std::vector<uint64_t>& out) {
  const QueryEntry& entry = queries_.at(qid);
  for (const PathInfo& info : entry.paths) {
    out.push_back(~1ull);  // path delimiter: (a)(b,c) and (a,b)(c) differ
    out.push_back(info.terminal->seq);
    for (uint32_t v : info.pos_to_vertex) out.push_back(v);
  }
  AppendFilterSignature(entry.pattern, out);
}

void TricEngine::ListQueryIds(std::vector<QueryId>& out) const {
  out.reserve(out.size() + queries_.size());
  for (const auto& [qid, entry] : queries_) out.push_back(qid);
}

bool TricEngine::EvaluateWindow(QueryEntry& entry,
                                const std::vector<uint32_t>& path_idxs,
                                TricWindowContext& wctx, uint32_t probe_weight,
                                bool& pass_ran, std::vector<uint32_t>& tags) {
  pass_ran = false;
  tags.clear();

  // End-of-window feasibility: views only grow inside an insert window, so
  // a path empty here was empty at every member position (paper Fig. 8
  // line 12 precondition).
  for (const PathInfo& info : entry.paths)
    if (info.terminal->view->Empty()) return true;
  NoteFinalJoinPass();
  pass_ran = true;

  // Per-(query, window) assignment set: dedup on the vertex columns, each
  // row tagged with the window position sequential execution would have
  // reported it at (= the max tag over its contributing view rows; every
  // derivation of a row carries the same tag). A window of one needs no
  // tags — every new row belongs to position 1 — so it runs the untagged
  // kernels. `probe_weight` > 1 marks a pass standing in for that many
  // per-query chains (window-cache build decisions stay identical to the
  // per-query pipeline's).
  const bool tagged = wctx.window_size > 1;
  const uint32_t num_vertices = static_cast<uint32_t>(entry.pattern.NumVertices());
  Relation assignments(num_vertices);
  if (tagged) assignments.EnableProvenance();

  for (uint32_t path_idx : path_idxs) {
    PathInfo& seed = entry.paths[path_idx];
    Relation* seed_view = seed.terminal->view.get();
    const RowRange delta{seed_view, wctx.prov.WindowDeltaBegin(seed_view),
                         seed_view->NumRows()};
    if (delta.empty()) continue;  // no delta after all

    OwnedBindings acc =
        tagged ? PathRowsToBindingsTagged(delta, seed.spec, wctx.prov.TagsFor(seed_view))
               : PathRowsToBindings(delta, seed.spec);
    if (acc.Empty()) continue;

    // One join pass against the other covering paths' end-of-window views
    // serves every update in the window, preferring join partners that
    // share vertices with the accumulated schema; the tags reconstruct the
    // per-update attribution below.
    std::vector<uint32_t> remaining;
    for (uint32_t p = 0; p < entry.paths.size(); ++p)
      if (p != path_idx) remaining.push_back(p);

    bool dead = false;
    while (!remaining.empty() && !dead) {
      size_t pick = 0;
      for (size_t r = 0; r < remaining.size(); ++r) {
        if (FirstSharedColumn(acc.schema, PathSchema(entry.paths[remaining[r]])) >= 0) {
          pick = r;
          break;
        }
      }
      PathInfo& other = entry.paths[remaining[pick]];
      const std::vector<uint32_t>& sb = PathSchema(other);
      auto [b, b_tags] = FullPathRange(other, wctx);
      const HashIndex* idx = nullptr;
      int col = FirstSharedColumn(acc.schema, sb);
      if (col >= 0)
        idx = JoinIndexFor(b.rel, static_cast<uint32_t>(col), probe_weight);
      acc = tagged ? JoinBindingRangesTagged(acc.schema, acc.All(), sb, b, b_tags, idx)
                   : JoinBindingRanges(acc.schema, acc.All(), sb, b, idx);
      dead = acc.Empty();
      remaining.erase(remaining.begin() + pick);
      if (BudgetExceeded()) return false;
    }
    if (dead) continue;

    // Project onto canonical vertex order and dedup into the assignment set.
    std::vector<uint32_t> perm(num_vertices);
    for (uint32_t c = 0; c < acc.schema.size(); ++c) perm[acc.schema[c]] = c;
    std::vector<VertexId> row(num_vertices);
    for (size_t r = 0; r < acc.rows->NumRows(); ++r) {
      const VertexId* src = acc.rows->Row(r);
      for (uint32_t v = 0; v < num_vertices; ++v) row[v] = src[perm[v]];
      // §4.3 extra phase: property constraints on the full assignment.
      if (!SatisfiesConstraints(entry.pattern, row.data())) continue;
      if (tagged)
        assignments.AppendTagged(row.data(), acc.rows->ProvOf(r));
      else
        assignments.Append(row.data());
    }
  }

  // The deduplicated assignments' window positions (ScatterTagCounts input).
  tags.reserve(assignments.NumRows());
  for (size_t r = 0; r < assignments.NumRows(); ++r) {
    const uint32_t tag = tagged ? assignments.ProvOf(r) : 1;
    GS_DCHECK(tag > 0);  // a new match always uses a window row
    tags.push_back(tag);
  }
  NotePeakTransient(assignments.MemoryBytes());
  return true;
}

void TricEngine::AddGroupRoutes(uint32_t gid, QueryId member) {
  const QueryEntry& entry = queries_.at(member);
  for (uint32_t pi = 0; pi < entry.paths.size(); ++pi)
    entry.paths[pi].terminal->route_groups.emplace_back(gid, pi);
}

void TricEngine::RemoveGroupRoutes(uint32_t gid, QueryId member) {
  const QueryEntry& entry = queries_.at(member);
  for (uint32_t pi = 0; pi < entry.paths.size(); ++pi) {
    auto& routes = entry.paths[pi].terminal->route_groups;
    routes.erase(std::find(routes.begin(), routes.end(), std::make_pair(gid, pi)));
  }
}

void TricEngine::FinalizeWindow(WindowContext& ctx, UpdateResult* window_results) {
  TricWindowContext& wctx = static_cast<TricWindowContext&>(ctx);
  if (wctx.affected_terminals.empty()) return;
  const auto& groups = finalize_groups();

  // Expand the affected terminals through their group annotations into
  // (group id, path idx) pairs: fan-out per signature group, not per query.
  // Sorted so each group's paths form one run.
  auto& affected = wctx.affected;
  affected.clear();
  for (TrieNode* node : wctx.affected_terminals)
    affected.insert(affected.end(), node->route_groups.begin(), node->route_groups.end());
  std::sort(affected.begin(), affected.end());
  NoteRoutedCandidates(affected.size());

  size_t i = 0;
  while (i < affected.size()) {
    const uint32_t gid = affected[i].first;
    size_t j = i;
    while (j < affected.size() && affected[j].first == gid) ++j;

    if (BudgetExceededNow()) return;  // timeout: partial, flagged by the caller

    wctx.path_idxs.clear();
    for (size_t k = i; k < j; ++k) wctx.path_idxs.push_back(affected[k].second);
    i = j;

    // Evaluate the group's first member once; its assignments serve every
    // member.
    const FinalizeGroup& group = groups[gid];
    bool pass_ran = false;
    if (!EvaluateWindow(queries_.at(group.members[0]), wctx.path_idxs, wctx,
                        static_cast<uint32_t>(group.members.size()), pass_ran,
                        wctx.tags))
      return;
    if (pass_ran && group.members.size() >= 2) NoteSharedGroupPass();
    for (QueryId qid : group.members) ScatterTagCounts(wctx.tags, qid, window_results);
  }
}

UpdateResult TricEngine::ApplyDelete(const EdgeUpdate& u) {
  UpdateResult result;
  result.changed = RemoveFromBaseViews(u);
  if (!result.changed) return result;

  // Locate the affected tries: every trie containing a node whose pattern
  // matches the deleted edge.
  std::unordered_set<TrieNode*> roots;
  for (const auto& g : Generalizations(u)) {
    const std::vector<TrieNode*>* nodes = forest_.NodesFor(g);
    if (nodes == nullptr) continue;
    for (TrieNode* n : *nodes) {
      while (n->parent != nullptr) n = n->parent;
      roots.insert(n);
    }
  }
  std::vector<uint32_t> depths;
  for (TrieNode* root : roots) {
    depths.clear();
    DeleteCascade(root, u, depths);
  }

  // Cyclic paths keep a filtered projection of their terminal view; those
  // shrank, so rebuild them lazily from scratch.
  for (auto& [qid, entry] : queries_) {
    for (PathInfo& info : entry.paths) {
      if (info.filtered != nullptr && info.filtered_upto > 0) {
        info.filtered->Clear();
        info.filtered_upto = 0;
      }
    }
  }
  return result;
}

void TricEngine::DeleteCascade(TrieNode* node, const EdgeUpdate& u,
                               std::vector<uint32_t>& depths) {
  const bool mine = node->pattern.Matches(u);
  if (mine) depths.push_back(node->depth);
  if (!depths.empty() && !node->view->Empty()) {
    node->view->RemoveRowsWhere([&](const VertexId* row) {
      for (uint32_t d : depths)
        if (row[d] == u.src && row[d + 1] == u.dst) return true;
      return false;
    });
  }
  for (const auto& child : node->children) DeleteCascade(child.get(), u, depths);
  if (mine) depths.pop_back();
}

void TricEngine::BuildPatternReach() {
  // Pass 1: per-node subtree aggregates. ForEachNode is pre-order (parents
  // before children), so a reverse sweep folds children into parents
  // bottom-up.
  std::unordered_map<const TrieNode*, Footprint> node_reach;
  std::vector<const TrieNode*> order;
  order.reserve(forest_.NumNodes());
  forest_.ForEachNode([&](const TrieNode& n) { order.push_back(&n); });
  node_reach.reserve(order.size());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TrieNode* n = *it;
    Footprint& fp = node_reach[n];
    fp.push_back(NodeElem(n->seq));
    fp.push_back(PatternElem(PatternId(n->pattern)));
    for (const PathRef& ref : n->paths) {
      // Finalizing a query joins the delta against the *other* covering
      // paths' terminal views, so the query's whole terminal closure is in
      // reach (including the shared maintained indexes over those views).
      fp.push_back(QueryElem(ref.qid));
      for (const PathInfo& info : queries_.at(ref.qid).paths)
        fp.push_back(NodeElem(info.terminal->seq));
    }
    for (const auto& child : n->children) {
      const Footprint& cfp = node_reach.at(child.get());
      fp.insert(fp.end(), cfp.begin(), cfp.end());
    }
    std::sort(fp.begin(), fp.end());
    fp.erase(std::unique(fp.begin(), fp.end()), fp.end());
  }

  // Pass 2: fold into per-pattern reaches (one per registered base view) so
  // CollectFootprint is a handful of map lookups per update.
  for (const auto& [pattern, view] : base_views_) {
    Footprint& fp = pattern_reach_[pattern];
    fp.push_back(PatternElem(PatternId(pattern)));  // base-view append
    if (const std::vector<TrieNode*>* nodes = forest_.NodesFor(pattern)) {
      for (const TrieNode* node : *nodes) {
        if (node->parent != nullptr) fp.push_back(NodeElem(node->parent->seq));
        const Footprint& nfp = node_reach.at(node);
        fp.insert(fp.end(), nfp.begin(), nfp.end());
      }
    }
    std::sort(fp.begin(), fp.end());
    fp.erase(std::unique(fp.begin(), fp.end()), fp.end());
  }
}

size_t TricEngine::MemoryBytes() const {
  size_t bytes = SharedMemoryBytes() + forest_.MemoryBytes();
  for (const auto& [qid, entry] : queries_) {
    bytes += sizeof(qid) + entry.pattern.MemoryBytes() + 2 * sizeof(void*);
    for (const auto& info : entry.paths) {
      bytes += sizeof(info) + mem::OfVector(info.pos_to_vertex) +
               mem::OfVector(info.spec.schema) + mem::OfVector(info.spec.src_pos);
      if (info.filtered != nullptr) bytes += info.filtered->MemoryBytes();
    }
  }
  if (cache_ != nullptr) bytes += cache_->MemoryBytes();
  return bytes;
}

}  // namespace tric
}  // namespace gstream

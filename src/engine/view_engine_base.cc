#include "engine/view_engine_base.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "common/logging.h"

namespace gstream {

namespace {

/// Union-find over window slots (path-halving; windows are small).
uint32_t FindRoot(std::vector<uint32_t>& parent, uint32_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

void Union(std::vector<uint32_t>& parent, uint32_t a, uint32_t b) {
  a = FindRoot(parent, a);
  b = FindRoot(parent, b);
  if (a != b) parent[b < a ? a : b] = b < a ? b : a;  // smaller slot wins
}

struct ElemHash {
  size_t operator()(uint64_t e) const { return Mix64(e); }
};

/// Generalization-profile encoding sentinels (pattern ids are small nonzero
/// values, so the top of the 64-bit space is free for markers).
constexpr uint64_t kProfileNextUpdate = ~0ull;
constexpr uint64_t kProfileDuplicate = ~0ull - 1;

/// Partition-memo bound: windows of a homogeneous stream collapse to a
/// handful of profiles, so a small cache captures the steady state; a
/// profile churn (adversarial or ingest-phase) just degrades to recompute.
constexpr size_t kPartitionCacheMax = 64;

}  // namespace

Relation* ViewEngineBase::GetOrCreateBaseView(const GenericEdgePattern& p) {
  auto it = base_views_.find(p);
  if (it == base_views_.end())
    it = base_views_.emplace(p, std::make_unique<Relation>(2)).first;
  return it->second.get();
}

Relation* ViewEngineBase::FindBaseView(const GenericEdgePattern& p) const {
  auto it = base_views_.find(p);
  return it == base_views_.end() ? nullptr : it->second.get();
}

Relation* ViewEngineBase::RefBaseView(const GenericEdgePattern& p) {
  ++base_view_refs_[p];
  auto it = base_views_.find(p);
  if (it != base_views_.end()) return it->second.get();

  // First reference creates the view — backfilled from the live edge set,
  // so a query registered (or re-registered after a removal wave) mid-
  // stream sees exactly the base-view contents it would have seen had it
  // been registered up front. This pins down the dynamic-QDB semantics:
  // notifications report only *future* matches, but those matches may
  // combine old and new edges, same as the oracle's recount-and-diff.
  Relation* view = GetOrCreateBaseView(p);
  for (const EdgeUpdate& e : seen_edges_) {
    if (!p.Matches(e)) continue;
    const VertexId row[2] = {e.src, e.dst};
    view->Append(row);
  }
  return view;
}

void ViewEngineBase::UnrefBaseView(const GenericEdgePattern& p) {
  auto ref = base_view_refs_.find(p);
  GS_DCHECK(ref != base_view_refs_.end() && ref->second > 0);
  if (--ref->second > 0) return;
  base_view_refs_.erase(ref);

  // Last reference: no surviving query routes through this pattern, so the
  // shared view (and everything keyed on it) is garbage. The rows it held
  // are reconstructible from the seen-edge set if the pattern ever
  // re-registers — exactly the mid-stream AddQuery backfill contract.
  auto it = base_views_.find(p);
  GS_DCHECK(it != base_views_.end());
  OnRelationEvicted(it->second.get());
  base_views_.erase(it);
  pattern_ids_.Erase(p);  // footprint ids are window-scoped; safe to recycle
  // Cached partitions may key on the recycled id; the removal wave also
  // marks the reaches dirty, but clear eagerly so no window in between can
  // see a stale partition.
  partition_cache_.clear();
}

void ViewEngineBase::CompactSharedState() { pattern_ids_.Compact(); }

void ViewEngineBase::AppendToBaseViews(const EdgeUpdate& u, WindowContext* ctx) {
  const VertexId row[2] = {u.src, u.dst};
  for (const auto& g : Generalizations(u)) {
    auto it = base_views_.find(g);
    if (it == base_views_.end()) continue;
    if (ctx != nullptr) ctx->prov.Checkpoint(it->second.get(), ctx->position);
    it->second->Append(row);
  }
}

bool ViewEngineBase::RemoveFromBaseViews(const EdgeUpdate& u) {
  if (seen_edges_.erase(u) == 0) return false;
  for (const auto& g : Generalizations(u)) {
    auto it = base_views_.find(g);
    if (it == base_views_.end()) continue;
    it->second->RemoveRowsWhere(
        [&](const VertexId* row) { return row[0] == u.src && row[1] == u.dst; });
  }
  return true;
}

bool ViewEngineBase::IsDuplicateUpdate(const EdgeUpdate& u) {
  return !seen_edges_.insert(u).second;
}

void ViewEngineBase::EnsureReach() {
  if (!reach_dirty_) return;
  pattern_reach_.clear();
  BuildPatternReach();
  reach_dirty_ = false;
}

void ViewEngineBase::CollectFootprint(const EdgeUpdate& u, Footprint& out) {
  EnsureReach();
  for (const auto& g : Generalizations(u)) {
    // Unregistered patterns have no base view and no index entries — an
    // insert matching only those touches nothing.
    auto it = pattern_reach_.find(g);
    if (it != pattern_reach_.end())
      out.insert(out.end(), it->second.begin(), it->second.end());
  }
}

UpdateResult ViewEngineBase::ApplyUpdate(const EdgeUpdate& u) {
  if (u.op == UpdateOp::kDelete) return ApplyDelete(u);
  UpdateResult result;
  RunInsertWindow(&u, 1, &result);
  return result;
}

std::vector<UpdateResult> ViewEngineBase::ApplyBatch(const EdgeUpdate* updates,
                                                     size_t n) {
  std::vector<UpdateResult> results(n);
  size_t i = 0;
  while (i < n) {
    if (updates[i].op == UpdateOp::kDelete) {
      // Deletions retract shared state with global reach; they act as
      // barriers between insert windows.
      results[i] = ApplyDelete(updates[i]);
      ++i;
    } else {
      size_t j = i;
      while (j < n && updates[j].op != UpdateOp::kDelete) ++j;
      i += RunInsertWindow(updates + i, j - i, results.data() + i);
    }
    if (results[i - 1].timed_out) {
      results.resize(i);
      break;
    }
  }
  return results;
}

size_t ViewEngineBase::RunInsertWindow(const EdgeUpdate* updates, size_t count,
                                       UpdateResult* out) {
  if (window_cache_enabled_ && count > 1)
    window_cache_ = std::make_unique<WindowJoinCache>();
  const size_t produced = RunInsertWindowImpl(updates, count, out);
  if (window_cache_ != nullptr) {
    // The window's build tables are transient scratch, never engine state.
    NotePeakTransient(window_cache_->MemoryBytes());
    window_cache_.reset();
  }
  return produced;
}

void ViewEngineBase::OnQueryAdded(QueryId qid) {
  MarkReachDirty();
  pending_queries_.push_back(qid);
}

void ViewEngineBase::OnQueryRemoved(QueryId qid) {
  MarkReachDirty();
  auto pending = std::find(pending_queries_.begin(), pending_queries_.end(), qid);
  if (pending != pending_queries_.end()) {
    pending_queries_.erase(pending);
    return;
  }
  // The signature is stable while the query is registered (its views and
  // trie terminals outlive it), so re-encoding finds its group.
  signature_scratch_.clear();
  EncodeFinalizeSignature(qid, signature_scratch_);
  auto it = group_ids_.find(signature_scratch_);
  GS_CHECK(it != group_ids_.end());
  const uint32_t gid = it->second;
  std::vector<QueryId>& members = finalize_groups_[gid].members;
  members.erase(std::lower_bound(members.begin(), members.end(), qid));
  if (!members.empty()) return;
  RemoveGroupRoutes(gid, qid);
  group_ids_.erase(it);
  free_group_ids_.push_back(gid);
}

void ViewEngineBase::JoinPendingGroups() {
  for (QueryId qid : pending_queries_) {
    signature_scratch_.clear();
    EncodeFinalizeSignature(qid, signature_scratch_);
    auto [it, created] = group_ids_.try_emplace(signature_scratch_, 0);
    if (created) {
      if (free_group_ids_.empty()) {
        it->second = static_cast<uint32_t>(finalize_groups_.size());
        finalize_groups_.emplace_back();
      } else {
        it->second = free_group_ids_.back();
        free_group_ids_.pop_back();
      }
    }
    std::vector<QueryId>& members = finalize_groups_[it->second].members;
    members.insert(std::upper_bound(members.begin(), members.end(), qid), qid);
    if (created) AddGroupRoutes(it->second, qid);
  }
  pending_queries_.clear();
}

void ViewEngineBase::AppendFilterSignature(const QueryPattern& q,
                                           std::vector<uint64_t>& out) {
  out.push_back(~0ull);  // section marker: filter spec follows
  out.push_back(q.NumVertices());
  for (const auto& c : q.constraints()) {
    out.push_back(c.vertex);
    out.push_back(c.key);
    out.push_back(static_cast<uint64_t>(c.op));
    out.push_back(static_cast<uint64_t>(c.value));
  }
}

void ViewEngineBase::ScatterTagCounts(std::vector<uint32_t>& tags, QueryId qid,
                                      UpdateResult* window_results) {
  std::sort(tags.begin(), tags.end());
  for (size_t r = 0; r < tags.size();) {
    size_t e = r;
    while (e < tags.size() && tags[e] == tags[r]) ++e;
    window_results[tags[r] - 1].AddQueryCount(qid, e - r);
    r = e;
  }
}

size_t ViewEngineBase::RunInsertWindowImpl(const EdgeUpdate* updates, size_t count,
                                           UpdateResult* out) {
  // Duplicate pre-pass, in stream order: the seen-edge set is global, so the
  // coordinator resolves it before any sharding. A duplicate's result is the
  // empty no-op result, exactly as in sequential execution.
  std::vector<uint8_t>& dup = dup_scratch_;
  dup.resize(count);
  for (size_t k = 0; k < count; ++k) dup[k] = IsDuplicateUpdate(updates[k]) ? 1 : 0;

  // Shared finalization groups are read (immutably) by FinalizeWindow, which
  // may run on shard threads — join the pending queries on the coordinator.
  JoinPendingGroups();

  // The finalize emits counts per signature group, interleaving query ids
  // across groups; restore each slot's ascending-qid invariant, then check
  // the budget at the window boundary.
  const auto finish = [&]() {
    for (size_t k = 0; k < count; ++k) out[k].SortByQuery();
    if (BudgetExceededNow()) out[count - 1].timed_out = true;
    return count;
  };

  // Single-threaded path: maintain views per update in stream order, then
  // run every deferred final join once at the window boundary, in the
  // reused coordinator context. On a budget trip results are partial, as
  // everywhere under timeout.
  const auto run_sequential = [&]() -> size_t {
    if (sequential_ctx_ == nullptr)
      sequential_ctx_ = NewWindowContext();
    else
      sequential_ctx_->Reset();
    WindowContext& ctx = *sequential_ctx_;
    ctx.window_updates = updates;
    ctx.window_size = static_cast<uint32_t>(count);
    for (size_t k = 0; k < count; ++k) {
      if (dup[k]) continue;
      ctx.position = static_cast<uint32_t>(k) + 1;
      ProcessInsertDelta(updates[k], ctx, out[k]);
      if (BudgetExceeded()) {
        // The pre-pass marked edges we never applied; un-mark the suffix so
        // it leaves no trace (ApplyBatch contract).
        for (size_t j = k + 1; j < count; ++j)
          if (!dup[j]) seen_edges_.erase(updates[j]);
        out[k].timed_out = true;
        return k + 1;
      }
    }
    FinalizeWindow(ctx, out);
    return finish();
  };

  if (sched_ == nullptr) return run_sequential();

  // ---- shard partition: generalization-profile memo, else union-find ----
  //
  // The partition is a pure function of the window's *generalization
  // profile*: per update, the ids of the registered patterns it matches
  // (CollectFootprint concatenates exactly those patterns' precomputed
  // reaches), plus the duplicate mask. Identical-profile windows — the
  // steady state of a homogeneous stream — reuse the shard member lists and
  // skip the element-level union-find entirely.
  std::vector<uint64_t> profile;
  EnsureReach();
  profile.reserve(count * 3);
  for (size_t k = 0; k < count; ++k) {
    profile.push_back(kProfileNextUpdate);
    if (dup[k]) {
      profile.push_back(kProfileDuplicate);
      continue;
    }
    for (const auto& g : Generalizations(updates[k])) {
      if (pattern_reach_.find(g) == pattern_reach_.end()) continue;
      profile.push_back(PatternId(g));
    }
  }
  const std::vector<std::vector<uint32_t>>* shard_lists = nullptr;
  auto hit = partition_cache_.find(profile);
  if (hit != partition_cache_.end()) {
    footprint_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    shard_lists = &hit->second.shard_members;
  } else {
    std::vector<std::vector<uint32_t>> computed_shards;
    // Footprint collection + union-find grouping: two inserts sharing any
    // footprint element may interact and land in one shard; shards are
    // therefore pairwise disjoint in everything they read or write.
    std::vector<Footprint> fps(count);
    std::vector<uint32_t> parent(count);
    std::iota(parent.begin(), parent.end(), 0u);
    FlatMap<uint64_t, uint32_t, ElemHash> owner;
    for (size_t k = 0; k < count; ++k) {
      if (dup[k]) continue;
      CollectFootprint(updates[k], fps[k]);
      for (uint64_t e : fps[k]) {
        uint32_t& first = owner.GetOrCreate(e);
        if (first == 0) {
          first = static_cast<uint32_t>(k) + 1;  // 1-based; 0 = unclaimed
        } else {
          Union(parent, first - 1, static_cast<uint32_t>(k));
        }
      }
    }

    // Shard member lists, ascending stream position within each shard. The
    // root is always a shard's smallest slot, so emitting shards in
    // first-member order keeps both the member lists and the shard order
    // deterministic.
    std::vector<int32_t> shard_of_root(count, -1);
    for (size_t k = 0; k < count; ++k) {
      if (dup[k]) continue;
      const uint32_t root = FindRoot(parent, static_cast<uint32_t>(k));
      if (shard_of_root[root] < 0) {
        shard_of_root[root] = static_cast<int32_t>(computed_shards.size());
        computed_shards.emplace_back();
      }
      computed_shards[static_cast<size_t>(shard_of_root[root])].push_back(
          static_cast<uint32_t>(k));
    }

    if (partition_cache_.size() >= kPartitionCacheMax) partition_cache_.clear();
    WindowPartition& slot = partition_cache_[std::move(profile)];
    slot.shard_members = std::move(computed_shards);
    shard_lists = &slot.shard_members;
  }

  const std::vector<std::vector<uint32_t>>& shards = *shard_lists;
  if (shards.size() <= 1) return run_sequential();

  // ---- task planning: grain-packed shard groups ----
  //
  // Shards vastly outnumber executors on busy windows, and per-shard tasks
  // would pay queue and wakeup costs per shard — so contiguous shards are
  // packed into tasks of roughly live/(P*8) members. The over-decomposition
  // (≈8 tasks per executor) is what lets stealing balance skew: a task that
  // landed one hot shard runs alone while idle executors steal the rest one
  // task at a time, so the window's makespan tracks the hot shard instead
  // of the hot shard plus a static 1/P stripe of everything else.
  size_t live = 0;
  for (const auto& members : shards) live += members.size();
  const size_t grain =
      std::max<size_t>(1, live / (static_cast<size_t>(sched_->size()) * 8));
  struct TaskSpan {
    uint32_t first = 0;  ///< First shard index of the span.
    uint32_t limit = 0;  ///< One past the last shard index.
  };
  std::vector<TaskSpan> tasks;
  {
    TaskSpan span;
    size_t span_members = 0;
    for (uint32_t s = 0; s < shards.size(); ++s) {
      span_members += shards[s].size();
      if (span_members >= grain) {
        span.limit = s + 1;
        tasks.push_back(span);
        span.first = s + 1;
        span_members = 0;
      }
    }
    if (span.first < shards.size()) {
      span.limit = static_cast<uint32_t>(shards.size());
      tasks.push_back(span);
    }
  }

  // Shards must not poll the (non-thread-safe) budget; the coordinator
  // checks it at the window boundary instead.
  Budget* saved_budget = budget_;
  budget_ = nullptr;
  // Each task owns a full-window result arena: FinalizeWindow scatters by
  // global window position, and distinct tasks never share a position, so
  // arenas also kill false sharing on the hot result slots. Each shard
  // replays its members' maintenance in stream order, then finalizes its own
  // queries once — tags are global window positions, so the merged results
  // read exactly like sequential execution.
  const uint64_t steals_before = sched_->steals();
  std::vector<std::vector<UpdateResult>> arenas(tasks.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    sched_->Submit([this, updates, count, t, &tasks, &shards, &arenas] {
      std::vector<UpdateResult>& arena = arenas[t];
      arena.resize(count);
      const TaskSpan span = tasks[t];
      for (uint32_t s = span.first; s < span.limit; ++s) {
        std::unique_ptr<WindowContext> ctx = NewWindowContext();
        ctx->window_updates = updates;
        ctx->window_size = static_cast<uint32_t>(count);
        for (uint32_t k : shards[s]) {
          ctx->position = k + 1;
          ProcessInsertDelta(updates[k], *ctx, arena[k]);
        }
        FinalizeWindow(*ctx, arena.data());
      }
    });
  }
  sched_->Wait();
  budget_ = saved_budget;
  batch_tasks_.fetch_add(tasks.size(), std::memory_order_relaxed);
  batch_steals_.fetch_add(sched_->steals() - steals_before,
                          std::memory_order_relaxed);

  // Deterministic positional merge, in task-submission order. Positions are
  // task-disjoint, so the merged window is byte-identical to sequential
  // execution no matter which executor ran which task (duplicate slots keep
  // the no-op result).
  for (size_t t = 0; t < tasks.size(); ++t) {
    for (uint32_t s = tasks[t].first; s < tasks[t].limit; ++s)
      for (uint32_t k : shards[s]) out[k] = std::move(arenas[t][k]);
  }
  return finish();
}

uint64_t ViewEngineBase::StateFingerprint() const {
  // Each section folds its elements with a commutative sum of per-element
  // Mix64 digests (a multiset hash), so the unordered containers' iteration
  // order cannot leak into the value; the section digests then chain
  // order-sensitively. Base views contribute (pattern, row count) only —
  // their row *contents* are a pure function of the seen-edge set already
  // digested, and row order is batch-schedule-dependent by design.
  uint64_t edges = 0;
  for (const EdgeUpdate& e : seen_edges_)
    edges += Mix64(Mix64((static_cast<uint64_t>(e.src) << 32) ^ e.dst) ^
                   (static_cast<uint64_t>(e.label) * 0x9e3779b97f4a7c15ull));

  uint64_t views = 0;
  for (const auto& [p, rel] : base_views_) {
    uint64_t h = Mix64((static_cast<uint64_t>(p.src) << 32) ^ p.dst);
    h = Mix64(h ^ (static_cast<uint64_t>(p.label) * 0x9e3779b97f4a7c15ull));
    views += Mix64(h ^ static_cast<uint64_t>(rel->NumRows()));
  }

  std::vector<QueryId> qids;
  ListQueryIds(qids);
  std::sort(qids.begin(), qids.end());

  uint64_t fp = Mix64(0x67736220666470ull);  // section-chain salt
  fp = Mix64(fp ^ edges);
  fp = Mix64(fp ^ views);
  fp = Mix64(fp ^ static_cast<uint64_t>(qids.size()));
  for (QueryId qid : qids) fp = Mix64(fp ^ static_cast<uint64_t>(qid));
  return fp;
}

size_t ViewEngineBase::SharedMemoryBytes() const {
  size_t bytes = sizeof(*this) + peak_transient_bytes_.load(std::memory_order_relaxed);
  for (const auto& [p, rel] : base_views_)
    bytes += sizeof(p) + rel->MemoryBytes() + 2 * sizeof(void*);
  bytes += base_view_refs_.size() *
           (sizeof(GenericEdgePattern) + sizeof(uint32_t) + 2 * sizeof(void*));
  bytes += seen_edges_.size() * (sizeof(EdgeUpdate) + 2 * sizeof(void*)) +
           seen_edges_.bucket_count() * sizeof(void*);
  bytes += pattern_ids_.MemoryBytes();
  for (const auto& [p, fp] : pattern_reach_)
    bytes += sizeof(p) + fp.capacity() * sizeof(uint64_t) + 2 * sizeof(void*);
  for (const auto& [key, gid] : group_ids_)
    bytes += sizeof(key) + key.capacity() * sizeof(uint64_t) + sizeof(gid) +
             4 * sizeof(void*);
  for (const FinalizeGroup& g : finalize_groups_)
    bytes += sizeof(g) + g.members.capacity() * sizeof(QueryId);
  return bytes;
}

}  // namespace gstream

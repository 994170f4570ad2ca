#ifndef GSTREAM_ENGINE_ENGINE_H_
#define GSTREAM_ENGINE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "engine/budget.h"
#include "engine/match.h"
#include "graph/properties.h"
#include "graph/update.h"
#include "query/pattern.h"

namespace gstream {

/// A continuous multi-query processing engine (the paper's problem
/// definition, §3.2): hold a *dynamic* query database QDB — continuous
/// queries register and expire while the stream runs — consume a stream of
/// edge updates, and report per update which queries are satisfied.
///
/// Contract:
///  * Queries register (`AddQuery`) and deregister (`RemoveQuery`) before,
///    between, or after updates — never while one is in flight. An engine
///    does not backfill results for updates that preceded a query's
///    registration beyond whatever shared state it already materialized.
///  * Removing a query garbage-collects every structure only that query
///    pinned (trie suffix nodes, materialized views, cached join indexes,
///    inverted-index postings) while leaving state shared with surviving
///    queries — and their results — untouched. `MemoryBytes()` shrinks
///    accordingly.
///  * `ApplyUpdate` returns continuous-notification results (see
///    `UpdateResult`); duplicate edges are no-ops.
///  * Engines are single-threaded; one engine instance per stream.
class ContinuousEngine {
 public:
  virtual ~ContinuousEngine() = default;

  /// Engine identifier as used in the paper's plots ("TRIC", "INV+", ...).
  virtual std::string name() const = 0;

  /// Registers a continuous query. Preconditions are checked here, once,
  /// for every engine: `q` must be valid and `qid` must be fresh — a
  /// duplicate id or invalid pattern fails loudly (GS_CHECK) instead of
  /// silently corrupting shared views. Engines implement `AddQueryImpl`.
  void AddQuery(QueryId qid, const QueryPattern& q);

  /// Deregisters a continuous query and garbage-collects the state only it
  /// pinned. Returns false (and changes nothing) when `qid` is unknown.
  /// Must not be called while a batch window is in flight.
  bool RemoveQuery(QueryId qid);

  /// True when `qid` is currently registered.
  virtual bool HasQuery(QueryId qid) const = 0;

  /// Applies one streamed edge update and reports newly satisfied queries.
  virtual UpdateResult ApplyUpdate(const EdgeUpdate& u) = 0;

  /// Applies a window of `n` consecutive stream updates and returns exactly
  /// the per-update results sequential `ApplyUpdate` calls would produce, in
  /// stream order (same match sets, same notification order). The returned
  /// vector is shorter than `n` only when the time budget tripped mid-window;
  /// the unprocessed suffix was not applied.
  ///
  /// The base implementation is the sequential loop. The view-based engines
  /// override it with footprint-sharded execution: updates whose read/write
  /// sets are provably disjoint run concurrently on the engine's batch
  /// thread pool (see `SetBatchThreads`).
  virtual std::vector<UpdateResult> ApplyBatch(const EdgeUpdate* updates, size_t n);

  /// Worker-thread count for `ApplyBatch` shards; 1 (default) keeps batched
  /// execution on the calling thread. Engines without a batch override
  /// ignore it. Must not be called while a batch is in flight.
  virtual void SetBatchThreads(int threads) { (void)threads; }

  /// Number of registered queries.
  virtual size_t NumQueries() const = 0;

  /// Diagnostic counter: final-join passes executed so far (one pass =
  /// joining one covering-path view set to produce matches). The view
  /// engines run one per (covering-path signature group, window), a single
  /// insert being a window of one — N queries joining the same shared views
  /// collapse into a single pass (DESIGN.md §9). Tests and the bench harness
  /// read this to verify the batching/sharing actually happened. Engines
  /// without a final-join stage report 0.
  virtual uint64_t final_join_passes() const { return 0; }

  /// Diagnostic counter companion to final_join_passes: window-finalize
  /// passes whose result was fanned out to two or more queries (each such
  /// pass replaced ≥ 2 per-query passes). 0 when no two live queries share a
  /// covering-path signature, or for engines without a final-join stage.
  virtual uint64_t shared_finalize_groups() const { return 0; }

  /// Diagnostic counter: candidate work items the routing layer handed to
  /// evaluation (DESIGN.md §12): signature groups, or (group, covering path)
  /// pairs on TRIC, tracking distinct query structure rather than tenant
  /// count. The fig_scale bench divides this by updates applied to show
  /// sublinear routing. Engines without a routing layer report 0.
  virtual uint64_t routed_candidates() const { return 0; }

  /// Diagnostic counter companion: streamed updates rejected by the O(words)
  /// routing prefilter before touching any posting list or base view.
  virtual uint64_t prefilter_rejects() const { return 0; }

  /// Diagnostic counter: tasks handed to the work-stealing batch scheduler
  /// by sharded window execution (grain-packed shard groups; see
  /// ViewEngineBase). 0 for single-threaded execution or engines without a
  /// batch override. The scheduler benches divide by windows to show the
  /// dispatch granularity.
  virtual uint64_t batch_tasks() const { return 0; }

  /// Diagnostic counter companion: how many of those tasks an idle executor
  /// acquired by stealing from another executor's deque. Nonzero steals on a
  /// skewed window are the signature of load balancing actually happening;
  /// the micro_sched skew sweep asserts on it.
  virtual uint64_t batch_steals() const { return 0; }

  /// Diagnostic counter: batch windows whose footprint/union-find shard
  /// partition was served from the generalization-profile memo instead of
  /// recomputed (see ViewEngineBase::RunInsertWindowImpl).
  virtual uint64_t footprint_cache_hits() const { return 0; }

  /// Approximate bytes of all retained structures, including the peak
  /// transient join scratch observed so far (Fig. 13(c) accounting).
  virtual size_t MemoryBytes() const = 0;

  /// Order-insensitive digest of the engine's durable state: the applied
  /// edge set, the shared materialized views, and the query registry. The
  /// ingest snapshot/recovery protocol (src/ingest/snapshot.h) records it at
  /// every snapshot and re-checks it after a crash-recovery fast-forward,
  /// proving the recovered engine reconstructed the exact pre-crash state
  /// before replay resumes. Deterministic across processes and batch
  /// configurations. 0 = no fingerprint (engines without the hook); recovery
  /// then relies on the counter cross-checks alone.
  virtual uint64_t StateFingerprint() const { return 0; }

  /// Cooperative time budget; engines poll it inside expensive loops.
  void set_budget(Budget* budget) { budget_ = budget; }

  /// Shared read-only vertex property store for §4.3 property-graph
  /// constraints. Must be set before updates are applied when any
  /// registered query carries constraints; see PropertyStore's contract.
  void set_property_store(const PropertyStore* store) { properties_ = store; }

 protected:
  /// The unchecked registration/removal hooks behind the public checked
  /// entry points. Implementations may assume the preconditions hold:
  /// AddQueryImpl sees a valid pattern and a fresh id, RemoveQueryImpl a
  /// registered id.
  virtual void AddQueryImpl(QueryId qid, const QueryPattern& q) = 0;
  virtual void RemoveQueryImpl(QueryId qid) = 0;

  bool BudgetExceeded() { return budget_ != nullptr && budget_->Exceeded(); }

  /// Non-sampling variant for coarse boundaries (per query per window):
  /// `BudgetExceeded` samples the clock every ~512 polls, which lets a
  /// window finalize overshoot the deadline by hundreds of expensive query
  /// evaluations; boundaries that gate big work check the clock for real.
  bool BudgetExceededNow() { return budget_ != nullptr && budget_->ExceededNow(); }

  /// The §4.3 extra answering phase: checks a full assignment (indexed by
  /// query vertex) against the query's property constraints. Constraints on
  /// vertices without the property — or with no store attached — fail.
  bool SatisfiesConstraints(const QueryPattern& q, const VertexId* assignment) const {
    if (!q.HasConstraints()) return true;
    if (properties_ == nullptr) return false;
    for (const auto& c : q.constraints()) {
      std::optional<int64_t> value = properties_->Get(assignment[c.vertex], c.key);
      if (!value.has_value() || !QueryPattern::EvalCmp(c.op, *value, c.value))
        return false;
    }
    return true;
  }

  Budget* budget_ = nullptr;
  const PropertyStore* properties_ = nullptr;
};

/// The seven evaluated algorithms (paper §4–§5) plus the naive oracle used by
/// the test suite.
enum class EngineKind {
  kTric,
  kTricPlus,
  kInv,
  kInvPlus,
  kInc,
  kIncPlus,
  kGraphDb,  ///< Neo4j-substitute: full graph store + per-query re-execution.
  kNaive,    ///< Oracle: re-counts every query on every update.
};

/// Display name matching the paper's figures.
const char* EngineKindName(EngineKind kind);

/// Command-line engine name: EngineKindName in any letter case (`tric+`,
/// `inv`, `graphdb`, `naive`, ...). False for an unknown name.
bool ParseEngineKind(const std::string& name, EngineKind* out);

/// Instantiates an engine.
std::unique_ptr<ContinuousEngine> CreateEngine(EngineKind kind);

/// The seven paper algorithms, in plot order (no oracle).
std::vector<EngineKind> PaperEngineKinds();

}  // namespace gstream

#endif  // GSTREAM_ENGINE_ENGINE_H_

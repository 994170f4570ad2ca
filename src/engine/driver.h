#ifndef GSTREAM_ENGINE_DRIVER_H_
#define GSTREAM_ENGINE_DRIVER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_set>
#include <vector>

#include "engine/engine.h"
#include "graph/stream.h"

namespace gstream {

namespace temporal {
class WindowManager;
}  // namespace temporal

/// One experiment cell's configuration: how long the engine may run before
/// the cell is declared timed out (the paper's 24-hour ceiling, scaled), and
/// how updates are fed to the engine.
struct RunConfig {
  double budget_seconds = std::numeric_limits<double>::infinity();

  /// Updates per `ApplyBatch` window; 1 = classic per-update `ApplyUpdate`,
  /// > 1 = the window-delta batch pipeline. The drivers reject 0.
  size_t batch_window = 1;

  /// Worker threads for the engines' sharded batch execution (only
  /// meaningful with batch_window > 1). The drivers reject < 1.
  int batch_threads = 1;
};

/// Aggregate result of streaming one update sequence through one engine —
/// the quantities the paper plots.
struct RunStats {
  size_t updates_applied = 0;
  double answer_millis = 0.0;       ///< Total answering time (wall clock).
  uint64_t new_embeddings = 0;      ///< Total new embeddings reported.
  size_t queries_satisfied = 0;     ///< Distinct queries triggered at least once.
  bool timed_out = false;
  size_t memory_bytes = 0;          ///< Engine memory after the run.

  /// The paper's y-axis: average answering time per update, in msec.
  double MsecPerUpdate() const {
    return updates_applied == 0 ? 0.0 : answer_millis / updates_applied;
  }
};

/// Statistics of the query indexing phase (Fig. 13(b)).
struct IndexStats {
  size_t queries_indexed = 0;
  double index_millis = 0.0;

  double MsecPerQuery() const {
    return queries_indexed == 0 ? 0.0 : index_millis / queries_indexed;
  }
};

/// Incremental absorber of per-update results with the RunStats bookkeeping.
/// Every path that feeds an engine — RunStream, RunMixedStream (and with it
/// RunWindowedStream), the bench harness, the file-replay ingest pipeline
/// (src/ingest/pipeline.h) and the socket server (src/server/) — applies its
/// windows through ApplyStreamWindow into one of these, so the paths cannot
/// diverge on how a window is applied, what "updates_applied" or
/// "queries_satisfied" mean, or when a run times out.
struct ResultAccumulator {
  /// Notification sink: fires once per absorbed result with the update's
  /// global index among applied updates (0-based; the value of
  /// `stats.updates_applied` before this result). The socket server fans
  /// match notifications out from here, and the oracle tests capture the
  /// exact emission sequence of a RunStream run through the same hook.
  using Sink = std::function<void(uint64_t index, const UpdateResult& result)>;
  Sink sink;

  RunStats stats;
  std::unordered_set<QueryId> satisfied;

  /// ApplyStreamWindow's expiry splice, reused across windows: the engine
  /// window (deletions and records) and which of its entries are records.
  std::vector<EdgeUpdate> spliced;
  std::vector<uint8_t> spliced_is_record;

  /// Folds one update's result in; returns its timed_out flag.
  bool Absorb(const UpdateResult& result) {
    const uint64_t index = stats.updates_applied;
    ++stats.updates_applied;
    stats.new_embeddings += result.new_embeddings;
    for (QueryId qid : result.triggered) satisfied.insert(qid);
    if (sink) sink(index, result);
    return result.timed_out;
  }

  /// Final bookkeeping: distinct satisfied queries + engine memory.
  void Finish(ContinuousEngine& engine) {
    stats.queries_satisfied = satisfied.size();
    stats.memory_bytes = engine.MemoryBytes();
  }
};

/// The run-scoped engine set-up every stream driver shares: installs a time
/// budget (none when `budget_seconds` is infinite) and, for `batch_threads`
/// > 1, the shard workers of ApplyBatch; the destructor restores the
/// engine's defaults (no budget, one thread).
class EngineRunScope {
 public:
  EngineRunScope(ContinuousEngine& engine, double budget_seconds,
                 int batch_threads);
  /// RunConfig form: rejects a zero window or thread count (GS_CHECK) and
  /// starts workers only for batched runs (batch_window > 1).
  EngineRunScope(ContinuousEngine& engine, const RunConfig& config);
  ~EngineRunScope();

  EngineRunScope(const EngineRunScope&) = delete;
  EngineRunScope& operator=(const EngineRunScope&) = delete;

  Budget* budget() { return &budget_; }

 private:
  ContinuousEngine& engine_;
  Budget budget_;
  bool threaded_ = false;
};

/// The one stream executor: applies the window `records[0..n)` (n >= 1) to
/// `engine` and absorbs each record's result into `acc`, in order.
///
///  * With an enabled `expiry` manager, each record's due expiry deletions
///    (WindowManager::Advance) are spliced ahead of it in the same engine
///    window. Deletions never absorb — they never trigger and consume no
///    record index — so `acc` counts records only; only their timeout flag
///    is kept. Without one the records reach the engine in place, uncopied.
///  * An engine window of one update goes through ApplyUpdate, any larger
///    one through ApplyBatch (deletions inside are the engine's barriers).
///
/// Sets `acc.stats.timed_out` when a result timed out, the engine returned
/// a short window (its budget dropped the suffix), or `budget` (may be
/// null) has expired; returns false once the run has timed out.
bool ApplyStreamWindow(ContinuousEngine& engine, const EdgeUpdate* records,
                       size_t n, ResultAccumulator& acc,
                       Budget* budget = nullptr,
                       temporal::WindowManager* expiry = nullptr);

/// Registers `queries` into `engine` with ids `first_qid..`, timing the
/// indexing phase.
IndexStats IndexQueries(ContinuousEngine& engine,
                        const std::vector<QueryPattern>& queries,
                        QueryId first_qid = 0);

/// Streams `stream` through `engine` under `config`, timing every update.
/// Stops early (marking `timed_out`) when the budget expires. `sink`, when
/// set, observes every per-update result in stream order (the accumulator's
/// notification hook) — the server tests capture the oracle emission
/// sequence through it.
RunStats RunStream(ContinuousEngine& engine, const UpdateStream& stream,
                   const RunConfig& config = {},
                   ResultAccumulator::Sink sink = nullptr);

/// One event of a mixed stream (the paper's dynamic query database, §3.2):
/// an edge update, a continuous-query registration, or a removal, arriving
/// in one ordered sequence while the stream runs.
struct StreamEvent {
  enum class Kind : uint8_t { kUpdate, kAddQuery, kRemoveQuery };

  Kind kind = Kind::kUpdate;
  EdgeUpdate update{};   ///< kUpdate only.
  QueryId qid = 0;       ///< kAddQuery / kRemoveQuery.
  QueryPattern query{};  ///< kAddQuery only.

  /// kAddQuery only: query lifetime in event-time units (0 = immortal).
  /// Plain RunMixedStream ignores it; the temporal runner
  /// (src/time/windowed_stream.h) auto-removes the query once the stream
  /// watermark passes registration + ttl.
  uint64_t query_ttl = 0;

  static StreamEvent Update(const EdgeUpdate& u) {
    StreamEvent e;
    e.kind = Kind::kUpdate;
    e.update = u;
    return e;
  }
  static StreamEvent Add(QueryId qid, QueryPattern q, uint64_t ttl = 0) {
    StreamEvent e;
    e.kind = Kind::kAddQuery;
    e.qid = qid;
    e.query = std::move(q);
    e.query_ttl = ttl;
    return e;
  }
  static StreamEvent Remove(QueryId qid) {
    StreamEvent e;
    e.kind = Kind::kRemoveQuery;
    e.qid = qid;
    return e;
  }
};

/// Aggregate result of a mixed update/query-event run, with the three cost
/// phases separated: indexing (AddQuery), removal GC (RemoveQuery), and
/// answering (edge updates).
struct MixedRunStats {
  size_t updates_applied = 0;
  size_t queries_added = 0;
  size_t queries_removed = 0;
  double answer_millis = 0.0;   ///< Edge-update processing wall clock.
  double index_millis = 0.0;    ///< AddQuery wall clock.
  double remove_millis = 0.0;   ///< RemoveQuery wall clock.
  uint64_t new_embeddings = 0;
  size_t queries_satisfied = 0;  ///< Distinct queries triggered at least once.
  bool timed_out = false;
  size_t memory_bytes = 0;       ///< Engine memory after the run.

  double MsecPerUpdate() const {
    return updates_applied == 0 ? 0.0 : answer_millis / updates_applied;
  }
  double MsecPerAdd() const {
    return queries_added == 0 ? 0.0 : index_millis / queries_added;
  }
  double MsecPerRemove() const {
    return queries_removed == 0 ? 0.0 : remove_millis / queries_removed;
  }
};

/// Drives `events` through `engine` in order. Consecutive edge updates form
/// windows of up to `config.batch_window` fed through ApplyStreamWindow
/// (query events are window barriers — the engine API forbids lifecycle
/// calls with a batch in flight). Add/remove/answer time is accounted
/// separately. The budget covers the whole run; on expiry the remaining
/// events are dropped and `timed_out` is set. `sink`, when set, observes
/// every per-update result as in RunStream. Removing an unknown qid is a
/// checked error (GS_CHECK) — event streams are validated input.
MixedRunStats RunMixedStream(ContinuousEngine& engine,
                             const std::vector<StreamEvent>& events,
                             const RunConfig& config = {},
                             ResultAccumulator::Sink sink = nullptr);

}  // namespace gstream

#endif  // GSTREAM_ENGINE_DRIVER_H_

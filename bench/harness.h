#ifndef GSTREAM_BENCH_HARNESS_H_
#define GSTREAM_BENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "engine/driver.h"
#include "engine/engine.h"
#include "graph/stream.h"
#include "workload/query_gen.h"
#include "workload/workload.h"

namespace gstream {
namespace bench {

/// Shared configuration of every figure bench.
///
/// Quick mode (default) shrinks the paper's scales so the whole bench suite
/// finishes in minutes on a laptop; `--full` restores paper scales (hours).
/// Each engine gets a wall-clock budget per series/cell; an engine that
/// cannot finish a cell within budget reports the average over the updates
/// it did process, suffixed `*` — the same timeout marker the paper uses in
/// Figs. 12(f)-14.
struct BenchOptions {
  bool full = false;
  double budget_seconds = 8.0;       ///< Per engine per growth series.
  double cell_budget_seconds = 2.0;  ///< Per engine per sweep cell.
  uint64_t seed = 42;
  bool csv = false;                  ///< Also print CSV rows.
  size_t batch = 1;                  ///< ApplyBatch window; 1 = per-update.
  int threads = 1;                   ///< Batch shard worker threads.
  /// Tenant duplication factor for the query generator (`--tenants=N`,
  /// validated positive): |QDB| = num_queries * tenants.
  size_t tenants = 1;

  /// Strict parse: an unknown `--flag` prints the flag set and exits with
  /// status 2 (a typo like `--ful` must not silently run quick mode).
  static BenchOptions FromArgs(int argc, char** argv);

  /// `quick` when !full, else `paper`.
  size_t Pick(size_t quick, size_t paper) const { return full ? paper : quick; }
  double PickD(double quick, double paper) const { return full ? paper : quick; }
};

/// One engine's series over growth checkpoints: ms/update within each
/// segment; NaN marks segments not reached before the budget expired.
struct GrowthSeries {
  EngineKind kind;
  std::vector<double> segment_ms;      ///< Per checkpoint.
  std::vector<bool> partial;           ///< Segment measured on a prefix only.
  IndexStats index_stats;
  size_t memory_bytes = 0;
  size_t updates_applied = 0;
  uint64_t new_embeddings = 0;
  uint64_t final_join_passes = 0;      ///< Final-join passes (see engine.h).
  uint64_t shared_finalize_groups = 0; ///< Passes fanned out to ≥ 2 queries.
  uint64_t routed_candidates = 0;      ///< Candidate work items (see engine.h).
  uint64_t prefilter_rejects = 0;      ///< Updates rejected by the prefilter.
  double answer_millis = 0.0;          ///< Total answering wall clock.

  /// Throughput counter: processed updates per second of answering time.
  double UpdatesPerSec() const {
    return answer_millis <= 0.0 ? 0.0 : updates_applied * 1000.0 / answer_millis;
  }

  /// Routing-selectivity counter: candidate work items per processed update.
  double CandidatesPerUpdate() const {
    return updates_applied == 0
               ? 0.0
               : static_cast<double>(routed_candidates) / updates_applied;
  }
};

/// Streams `stream` through a fresh engine of `kind` (after indexing
/// `queries`), recording the average answering time per update within each
/// checkpoint segment. `checkpoints` are ascending stream positions; the
/// budget covers the whole series, mirroring the paper's per-run ceiling.
GrowthSeries RunGrowthSeries(EngineKind kind,
                             const std::vector<QueryPattern>& queries,
                             const UpdateStream& stream,
                             const std::vector<size_t>& checkpoints,
                             double budget_seconds, size_t batch = 1,
                             int threads = 1);

/// One independent cell: average ms/update over the whole stream (or the
/// prefix processed within budget — flagged `partial`).
struct CellResult {
  double ms_per_update = 0.0;
  bool partial = false;
  size_t updates_applied = 0;
  size_t memory_bytes = 0;
  uint64_t new_embeddings = 0;
  uint64_t final_join_passes = 0;      ///< Final-join passes (see engine.h).
  uint64_t shared_finalize_groups = 0; ///< Passes fanned out to ≥ 2 queries.
  uint64_t routed_candidates = 0;      ///< Candidate work items (see engine.h).
  uint64_t prefilter_rejects = 0;      ///< Updates rejected by the prefilter.
  uint64_t batch_tasks = 0;            ///< Scheduler tasks (see engine.h).
  uint64_t batch_steals = 0;           ///< Cross-executor steals.
  uint64_t footprint_cache_hits = 0;   ///< Partition-memo window hits.
  size_t queries_satisfied = 0;
  IndexStats index_stats;

  /// Throughput counter: processed updates per second of answering time.
  double UpdatesPerSec() const {
    return ms_per_update <= 0.0 ? 0.0 : 1000.0 / ms_per_update;
  }

  /// Routing-selectivity counter: candidate work items per processed update.
  double CandidatesPerUpdate() const {
    return updates_applied == 0
               ? 0.0
               : static_cast<double>(routed_candidates) / updates_applied;
  }
};

CellResult RunCell(EngineKind kind, const std::vector<QueryPattern>& queries,
                   const UpdateStream& stream, double budget_seconds,
                   size_t batch = 1, int threads = 1);

/// One query-churn cell (the dynamic-QDB scenario): `base` queries are
/// registered up front (timed as the indexing phase, Fig. 13(b) style),
/// then the stream runs with one query removed (oldest first) and one fresh
/// query from `pool` registered every `churn_every` updates. The mixed-run
/// stats separate indexing, removal-GC, and answering time; `memory_*`
/// bracket the run to show the shared-view GC holding memory flat under
/// churn.
struct ChurnCellResult {
  MixedRunStats stats;
  IndexStats initial_index;          ///< Up-front registration of `base`.
  size_t memory_after_index = 0;     ///< Engine bytes before the stream.
  size_t live_queries_end = 0;       ///< |QDB| after the run.
  uint64_t final_join_passes = 0;      ///< Final-join passes (see engine.h).
  uint64_t shared_finalize_groups = 0; ///< Passes fanned out to ≥ 2 queries.
};

ChurnCellResult RunChurnCell(EngineKind kind,
                             const std::vector<QueryPattern>& base,
                             const std::vector<QueryPattern>& pool,
                             const UpdateStream& stream, size_t churn_every,
                             double budget_seconds, size_t batch = 1,
                             int threads = 1);

/// Formats a cell/segment value with the paper's timeout marker.
std::string FormatMs(double ms, bool partial);

/// Machine-readable result line for trajectory tracking: accumulates fields
/// and emits one `BENCH_JSON {...}` line on stdout. tools/bench_smoke.sh and
/// CI grep for these.
class BenchLine {
 public:
  explicit BenchLine(const std::string& bench);
  BenchLine& Add(const std::string& key, const std::string& value);  ///< Quoted.
  BenchLine& Add(const std::string& key, double value);
  BenchLine& Add(const std::string& key, uint64_t value);
  void Emit();  ///< Prints and invalidates the line.

 private:
  std::string body_;
};

/// Evenly spaced checkpoints 1/n..n/n of `total`.
std::vector<size_t> EvenCheckpoints(size_t total, size_t n);

/// Prints the standard bench header.
void PrintHeader(const std::string& figure, const std::string& caption,
                 const BenchOptions& opts);

/// Prints a finished table (and CSV when requested).
void PrintTable(const TextTable& table, const BenchOptions& opts);

/// Builds a workload by name ("snb" | "taxi" | "bio") with `num_updates`.
workload::Workload MakeWorkload(const std::string& dataset, size_t num_updates,
                                uint64_t seed);

/// The paper's §6.1 baseline query-set configuration, scaled.
workload::QueryGenConfig BaselineQueryConfig(const BenchOptions& opts,
                                             size_t num_queries);

/// Full growth-figure driver (Figs. 12(a), 12(f), 13(a), 14(a)-(c)): builds
/// the dataset and query set, runs every engine in `kinds` over the growing
/// stream and prints a table: one row per graph-size checkpoint (edges +
/// vertices), one column per engine, cells in msec/update.
void RunGrowthFigure(const std::string& figure, const std::string& caption,
                     const std::string& dataset, size_t total_updates,
                     size_t num_segments, size_t num_queries,
                     const std::vector<EngineKind>& kinds, const BenchOptions& opts);

}  // namespace bench
}  // namespace gstream

#endif  // GSTREAM_BENCH_HARNESS_H_

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The reference computation and one timed cycle per workload kind.

#include <cstdint>
#include <vector>

#include "inputs.h"
#include "measure.h"

namespace perfbench {

/// The expected notifications: the GraphDB engine (per-query re-execution,
/// the paper's baseline) replays the same input once, outside the timed
/// cycles, at batch 1.
struct Reference {
  std::vector<uint64_t> per_record;  ///< NotificationHash per input record.
  uint64_t notifications = 0;        ///< Records that notified something.
  uint64_t new_embeddings = 0;
  std::vector<uint32_t> must_fire;   ///< Planted query ids the run must fire.
  uint64_t silent_planted = 0;       ///< Planted queries the reference missed.
  double seconds = 0.0;              ///< GraphDB stream replay time.
};

Reference ComputeReference(const Inputs& in);

/// Folds per-record notification hashes into one digest.
uint64_t CombineDigest(const std::vector<uint64_t>& per_record);

/// What one cycle is checked against and how it is instrumented.
struct CycleSetup {
  const Inputs* in = nullptr;
  const Reference* ref = nullptr;
  Tracer* tracer = nullptr;  ///< Null in untraced cycles.
  bool inject_drop = false;  ///< Drop one notification from the digest.
};

/// Compares a cycle's per-record notification hashes with the reference and
/// records mismatches, missing notifications and silent planted queries.
/// Returns the number of missing notifications.
uint64_t CheckNotifications(const CycleSetup& setup, std::vector<uint64_t>& hashes,
                        const std::vector<char>& fired, Ledger& ledger);

/// One cycle of snb-qdb2500, snb-churn or taxi-window: a fresh TRIC+ engine,
/// the initial registrations (setup), then the stream record by record.
void RunInProcessCycle(const CycleSetup& setup, Cycles& cycles, Ledger& ledger);

/// One cycle of server-loopback: a fresh Server on 127.0.0.1, a subscriber
/// and a producer connection, closed-loop bursts, then an open-loop tail.
void RunLoopbackCycle(const CycleSetup& setup, Cycles& cycles, Ledger& ledger);

/// Reports best-of-cycles end-to-end figures from the per-item minima kept
/// in `cy` (README.md, "Measurement rule"): every timing of an in-process
/// workload, and server-loopback's records_per_s. Times are multiplied by
/// `clock` (kClockReferenceMs / the run's fastest clock probe), rates
/// divided by it.
void ReportInProcessBestOf(const Inputs& in, double clock, Cycles& cy);
void ReportLoopbackBestOf(const Inputs& in, double clock, Cycles& cy);

/// Engine-side figures for server-loopback, whose engine is private to the
/// Server: an in-process TRIC+ engine with the same subscriptions replays
/// the same stream through ApplyBatch in windows of the server's default
/// size. Run once, outside the timed cycles.
struct Mirror {
  double candidates_per_update = 0.0;
  double prefilter_reject_frac = 0.0;
  double passes_per_update = 0.0;
  double shared_finalize_frac = 0.0;
  double trie_nodes_per_query = 0.0;
};

Mirror RunMirror(const Inputs& in);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

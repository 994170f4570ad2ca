#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Workload inputs, generated from the run's seed.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/interning.h"
#include "graph/update.h"
#include "query/pattern.h"
#include "time/window.h"

namespace perfbench {

/// One workload's generated input. Everything a cycle replays lives here, so
/// every cycle of a run sees byte-identical input.
struct Inputs {
  std::shared_ptr<gstream::StringInterner> interner;
  std::vector<gstream::EdgeUpdate> records;

  /// Query registrations in order. Registration i uses query id qids[i].
  /// In-process workloads register the first `initial_queries` before the
  /// stream; snb-churn registers the rest one by one while it runs.
  std::vector<gstream::QueryPattern> queries;
  std::vector<uint32_t> qids;
  std::vector<bool> planted;
  size_t initial_queries = 0;

  /// snb-churn: before every `churn_every`-th record (from the first
  /// multiple on), the oldest live query is removed and the next one added.
  size_t churn_every = 0;

  /// taxi-window: sliding event-time window applied by WindowManager.
  gstream::temporal::WindowConfig window;

  /// server-loopback: subscription patterns (subscription i has id i).
  std::vector<std::string> patterns;
  size_t burst_records = 0;   ///< Records streamed in closed-loop bursts.
  size_t burst_size = 0;      ///< Records per burst.
  double paced_rate = 0.0;    ///< Open-loop rate of the remaining records, 1/s.

  uint64_t digest = 0;  ///< Digest of records + queries + patterns.
};

/// The four workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Generates `workload`'s input for `seed`. The logical graph and query set
/// come from the generators at fixed settings; the seed renumbers every
/// interned vertex and label and permutes query ids (see README.md, "Seeds").
Inputs MakeInputs(const std::string& workload, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_

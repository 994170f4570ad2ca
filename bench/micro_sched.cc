// micro_sched — work-stealing scheduler calibration bench.
//
// Three cell families, all emitted as BENCH_JSON lines (collected into
// BENCH_RUNNER.json by tools/bench_runner.sh and gated by
// tools/bench_compare.py):
//
//  * dispatch — pure scheduler overhead: tasks/sec through Submit+Wait for
//    trivial tasks, plus the steal rate and coordinator queue depth. This
//    calibrates the task grain: engine tasks must be >> 1/tasks_per_sec.
//
//  * skew — the A/B the tentpole claims: a window of equal-cost tasks with
//    one hot task `hot_factor` times heavier, executed (a) statically
//    striped one-lane-per-executor, exactly the pre-PR-10 ApplyBatch
//    fan-out, and (b) as individually stealable tasks. With stealing the
//    makespan tracks max(hot, rest/(P-1)); with static striping the lane
//    that drew the hot task also drags its 1/P stripe of everything else.
//    `speedup_vs_static` > 1 on multi-core runners is the win CI records.
//
//  * engine_scale — end-to-end `--batch --threads` scaling cells: the snb
//    workload through TRIC+ and INV+ at the configured thread count,
//    reporting updates/sec plus the scheduler counters (tasks, steals,
//    partition-memo hits) so the runner-native baseline pins the whole
//    path, not just the synthetic core.
//
// Thread count comes from --threads; the bench-multicore CI job sweeps
// {1,2,4} and fails if threads=4 loses to threads=1 on any completed cell.

#include <chrono>
#include <cstdint>
#include <vector>

#include "bench/harness.h"
#include "common/task_scheduler.h"

namespace gstream {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Deterministic CPU work: `iters` rounds of a 64-bit mix, returned so the
/// optimizer cannot delete the loop. ~1.5ns/iter on current x86.
uint64_t Spin(uint64_t iters, uint64_t seed) {
  uint64_t h = seed | 1;
  for (uint64_t i = 0; i < iters; ++i) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= i;
  }
  return h;
}

struct SpinSink {
  std::vector<uint64_t> slots;  ///< One per task: no sharing, no races.
};

void RunDispatchCell(const BenchOptions& opts) {
  const size_t tasks = opts.Pick(20000, 200000);
  TaskScheduler sched(opts.threads);
  SpinSink sink;
  sink.slots.assign(tasks, 0);
  const auto start = Clock::now();
  for (size_t i = 0; i < tasks; ++i) {
    uint64_t* slot = &sink.slots[i];
    sched.Submit([slot, i] { *slot = Spin(1, i); });
  }
  sched.Wait();
  const double ms = MsSince(start);

  BenchLine line("micro_sched");
  line.Add("cell", std::string("dispatch"));
  line.Add("threads", static_cast<uint64_t>(opts.threads));
  line.Add("tasks", static_cast<uint64_t>(tasks));
  line.Add("tasks_per_sec", tasks * 1000.0 / ms);
  line.Add("steals", sched.steals());
  line.Add("max_queue_depth", sched.max_queue_depth());
  line.Emit();
}

/// One skew configuration: `tasks` tasks of `base_iters` work, task 0
/// inflated by `hot_factor`. Returns the makespan in ms.
double RunSkewStealing(TaskScheduler& sched, size_t tasks, uint64_t base_iters,
                       uint64_t hot_factor, SpinSink& sink) {
  const auto start = Clock::now();
  for (size_t i = 0; i < tasks; ++i) {
    const uint64_t iters = i == 0 ? base_iters * hot_factor : base_iters;
    uint64_t* slot = &sink.slots[i];
    sched.Submit([slot, iters, i] { *slot = Spin(iters, i); });
  }
  sched.Wait();
  return MsSince(start);
}

/// The pre-PR-10 fan-out, reproduced exactly: one task per executor, tasks
/// striped round-robin over the lanes — a lane runs its whole stripe with
/// no rebalancing, so the hot lane's makespan is hot + stripe.
double RunSkewStatic(TaskScheduler& sched, size_t tasks, uint64_t base_iters,
                     uint64_t hot_factor, SpinSink& sink) {
  const size_t lanes = static_cast<size_t>(sched.size());
  const auto start = Clock::now();
  for (size_t lane = 0; lane < lanes; ++lane) {
    uint64_t* slots = sink.slots.data();
    sched.Submit([slots, lane, lanes, tasks, base_iters, hot_factor] {
      for (size_t i = lane; i < tasks; i += lanes) {
        const uint64_t iters = i == 0 ? base_iters * hot_factor : base_iters;
        slots[i] = Spin(iters, i);
      }
    });
  }
  sched.Wait();
  return MsSince(start);
}

void RunSkewSweep(const BenchOptions& opts) {
  const size_t tasks = 64;
  const uint64_t base_iters = opts.Pick(200000, 2000000);
  for (uint64_t hot_factor : {1ull, 4ull, 16ull}) {
    // Alternate the modes and keep each mode's best of 3, so scheduler-
    // external noise (CI neighbors, frequency ramps) hits both sides alike
    // — the DESIGN.md §6.4 measurement protocol.
    double best_static = 0.0, best_steal = 0.0;
    uint64_t steals = 0;
    TaskScheduler sched(opts.threads);
    SpinSink sink;
    sink.slots.assign(tasks, 0);
    for (int rep = 0; rep < 3; ++rep) {
      const double stat =
          RunSkewStatic(sched, tasks, base_iters, hot_factor, sink);
      const uint64_t steals_before = sched.steals();
      const double steal =
          RunSkewStealing(sched, tasks, base_iters, hot_factor, sink);
      if (rep == 0 || stat < best_static) best_static = stat;
      if (rep == 0 || steal < best_steal) {
        best_steal = steal;
        steals = sched.steals() - steals_before;
      }
    }

    BenchLine line("micro_sched");
    line.Add("cell", std::string("skew"));
    line.Add("threads", static_cast<uint64_t>(opts.threads));
    line.Add("hot_factor", hot_factor);
    line.Add("tasks", static_cast<uint64_t>(tasks));
    line.Add("static_ms", best_static);
    line.Add("steal_ms", best_steal);
    line.Add("speedup_vs_static", best_static / best_steal);
    line.Add("steals", steals);
    line.Emit();
  }
}

void RunEngineScale(const BenchOptions& opts) {
  const size_t num_updates = opts.Pick(6000, 60000);
  const size_t num_queries = opts.Pick(40, 200);
  workload::Workload wl = MakeWorkload("snb", num_updates, opts.seed);
  workload::QueryGenConfig qcfg = BaselineQueryConfig(opts, num_queries);
  std::vector<QueryPattern> queries =
      workload::GenerateQueries(wl, qcfg).queries;

  const size_t batch = opts.batch > 1 ? opts.batch : 64;
  for (EngineKind kind : {EngineKind::kTricPlus, EngineKind::kInvPlus}) {
    CellResult cell = RunCell(kind, queries, wl.stream,
                              opts.cell_budget_seconds * 4, batch,
                              opts.threads);
    BenchLine line("micro_sched");
    line.Add("cell", std::string("engine_scale"));
    line.Add("engine", std::string(EngineKindName(kind)));
    line.Add("threads", static_cast<uint64_t>(opts.threads));
    line.Add("batch", static_cast<uint64_t>(batch));
    line.Add("updates_per_sec", cell.UpdatesPerSec());
    line.Add("updates_applied", static_cast<uint64_t>(cell.updates_applied));
    line.Add("partial", static_cast<uint64_t>(cell.partial ? 1 : 0));
    line.Add("batch_tasks", cell.batch_tasks);
    line.Add("batch_steals", cell.batch_steals);
    line.Add("footprint_cache_hits", cell.footprint_cache_hits);
    line.Add("new_embeddings", cell.new_embeddings);
    line.Emit();
  }
}

void Main(const BenchOptions& opts) {
  PrintHeader("micro_sched",
              "Work-stealing scheduler calibration: dispatch overhead, "
              "hot-shard skew sweep (static vs stealing), engine scaling",
              opts);
  RunDispatchCell(opts);
  RunSkewSweep(opts);
  RunEngineScale(opts);
}

}  // namespace
}  // namespace bench
}  // namespace gstream

int main(int argc, char** argv) {
  gstream::bench::Main(gstream::bench::BenchOptions::FromArgs(argc, argv));
  return 0;
}

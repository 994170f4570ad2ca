// Query-churn bench (beyond the paper's figures): the dynamic query
// database the problem definition (§3.2) assumes — continuous queries
// register and expire while the stream runs. A base QDB is indexed up
// front; every K updates the oldest query is removed and a fresh one
// registered, holding |QDB| steady. Reported per engine, separately:
// indexing time (initial + churn adds), removal/GC time, and answering
// time — plus memory after the run, which the refcounted shared-view GC
// must keep in line with the steady-state QDB instead of growing with
// every query ever registered.

#include "bench/harness.h"

using namespace gstream;
using namespace gstream::bench;

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::FromArgs(argc, argv);
  PrintHeader("fig15-churn", "query churn: add/remove queries mid-stream (SNB)",
              opts);

  const size_t total_updates = opts.Pick(20'000, 500'000);
  const size_t base_queries = opts.Pick(60, 300);
  const size_t pool_queries = opts.Pick(120, 600);
  const size_t churn_every = opts.Pick(100, 500);
  std::printf(
      "dataset=snb  |GE|=%zu  base |QDB|=%zu  churn: -1/+1 every %zu updates "
      "(%zu fresh queries)\n\n",
      total_updates, base_queries, churn_every, pool_queries);

  workload::Workload w = MakeWorkload("snb", total_updates, opts.seed);
  workload::QuerySet base =
      workload::GenerateQueries(w, BaselineQueryConfig(opts, base_queries));
  workload::QueryGenConfig pool_cfg = BaselineQueryConfig(opts, pool_queries);
  pool_cfg.seed = opts.seed * 2654435761ull + 101;  // disjoint from the base set
  workload::QuerySet pool = workload::GenerateQueries(w, pool_cfg);

  TextTable table({"engine", "index ms/q", "add ms/q", "remove ms/q",
                   "answer ms/upd", "upd/s", "MB end", "|QDB| end"});
  for (EngineKind kind : PaperEngineKinds()) {
    std::printf("  running %-8s ...", EngineKindName(kind));
    std::fflush(stdout);
    ChurnCellResult cell =
        RunChurnCell(kind, base.queries, pool.queries, w.stream, churn_every,
                     opts.budget_seconds, opts.batch, opts.threads);
    const MixedRunStats& s = cell.stats;
    const double upd_per_sec =
        s.answer_millis <= 0.0 ? 0.0 : s.updates_applied * 1000.0 / s.answer_millis;
    std::printf(
        " %zu/%zu updates, +%zu/-%zu queries, %.0f upd/s, %.1f MB%s\n",
        s.updates_applied, total_updates, s.queries_added, s.queries_removed,
        upd_per_sec, static_cast<double>(s.memory_bytes) / (1024.0 * 1024.0),
        s.timed_out ? " *" : "");

    table.AddRow({EngineKindName(kind),
                  TextTable::Num(cell.initial_index.MsecPerQuery(), 3),
                  TextTable::Num(s.MsecPerAdd(), 3),
                  TextTable::Num(s.MsecPerRemove(), 3),
                  FormatMs(s.MsecPerUpdate(), s.timed_out),
                  TextTable::Num(upd_per_sec, 0),
                  TextTable::Num(static_cast<double>(s.memory_bytes) /
                                     (1024.0 * 1024.0),
                                 2),
                  std::to_string(cell.live_queries_end)});

    BenchLine("fig15_churn")
        .Add("dataset", std::string("snb"))
        .Add("engine", std::string(EngineKindName(kind)))
        .Add("updates_per_sec", upd_per_sec)
        .Add("index_ms_per_query", cell.initial_index.MsecPerQuery())
        .Add("add_ms_per_query", s.MsecPerAdd())
        .Add("remove_ms_per_query", s.MsecPerRemove())
        .Add("queries_added", static_cast<uint64_t>(s.queries_added))
        .Add("queries_removed", static_cast<uint64_t>(s.queries_removed))
        .Add("updates_applied", static_cast<uint64_t>(s.updates_applied))
        .Add("partial", static_cast<uint64_t>(s.timed_out ? 1 : 0))
        .Add("memory_bytes", static_cast<uint64_t>(s.memory_bytes))
        .Add("final_join_passes", cell.final_join_passes)
        .Add("shared_finalize_groups", cell.shared_finalize_groups)
        .Emit();
  }
  std::printf("\n");
  PrintTable(table, opts);
  return 0;
}

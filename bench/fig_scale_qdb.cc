// fig_scale: million-query routing (DESIGN.md §12). Scales |QDB| far past the
// paper's 5K ceiling — 10k, 100k, 1M queries — by tenant duplication: a base
// set of distinct subscriptions replicated verbatim under fresh query ids
// (`QueryGenConfig::tenants`), the realistic shape of a large multi-tenant
// deployment. Each cell measures updates/s, routed candidate work items per
// update, prefilter rejects, and engine bytes per query.
//
// Routing must keep candidates/update flat (sublinear in |QDB|): candidates
// are signature groups, so tenant duplication adds none. The 1M cell runs on
// TRIC+ only and exists to show the index itself stays inside the bench
// memory budget.

#include "bench/harness.h"

int main(int argc, char** argv) {
  using namespace gstream;
  using namespace gstream::bench;
  BenchOptions opts = BenchOptions::FromArgs(argc, argv);
  PrintHeader("Fig scale", "SNB: query-DB scaling via tenant duplication", opts);

  const size_t edges = opts.Pick(2'000, 20'000);
  const size_t base_queries = 100;  // distinct subscriptions per tenant
  // Routing pays off on the window-delta path; default to a window unless the
  // caller pinned one explicitly.
  const size_t batch = opts.batch > 1 ? opts.batch : 128;

  struct ScaleCell {
    size_t tenants;
    const char* name;
    bool all_engines;  ///< False: TRIC+ only (the memory-bound cell).
  };
  // `--tenants=N` replaces the full 10k/100k/1M sweep with one cell at N
  // tenants — the smoke pass runs a cell small enough to complete inside its
  // budget (partial cells are excluded from the CI regression gate).
  std::vector<ScaleCell> cells;
  if (opts.tenants > 1) {
    cells.push_back({opts.tenants, "smoke", true});
  } else {
    cells = {{100, "10k", true}, {1000, "100k", true}, {10000, "1m", false}};
  }

  std::printf("dataset=snb  |GE|=%zu  base |QDB|=%zu  batch=%zu  l=3\n\n",
              edges, base_queries, batch);

  workload::Workload w = MakeWorkload("snb", edges, opts.seed);
  workload::QueryGenConfig qc = BaselineQueryConfig(opts, base_queries);
  // Smaller patterns than the paper baseline (l=3 vs l=5): the sweep's axis
  // is |QDB|, and the 1M cell's per-query state has to stay inside the bench
  // memory budget.
  qc.avg_size = 3.0;
  // Sparser than the paper baseline (σ=5% vs 25%): at 1M queries the
  // baseline σ would satisfy 250k subscriptions, so notification fan-out —
  // inherent output volume — would mask the dispatch cost this figure
  // isolates.
  qc.selectivity = 0.05;

  const EngineKind kinds[] = {EngineKind::kTricPlus, EngineKind::kInvPlus};

  TextTable table({"|QDB|", "engine", "upd/s", "cand/upd", "rejects", "B/query"});

  for (const ScaleCell& cell : cells) {
    qc.tenants = cell.tenants;
    workload::QuerySet qs = workload::GenerateQueries(w, qc);
    const size_t qdb = qs.queries.size();
    for (EngineKind kind : kinds) {
      // The 1M cell runs on the trie engine only: one cell is enough to prove
      // the memory bound, and the recompute baselines' per-query view state
      // dominates the budget well before the routing index does.
      if (!cell.all_engines && kind != EngineKind::kTricPlus) continue;

      CellResult r = RunCell(kind, qs.queries, w.stream, opts.cell_budget_seconds,
                             batch, opts.threads);
      const double bpq = qdb == 0 ? 0.0 : static_cast<double>(r.memory_bytes) / qdb;
      char upd[32], cand[32], bytes[32];
      std::snprintf(upd, sizeof(upd), "%.0f%s", r.UpdatesPerSec(),
                    r.partial ? "*" : "");
      std::snprintf(cand, sizeof(cand), "%.1f", r.CandidatesPerUpdate());
      std::snprintf(bytes, sizeof(bytes), "%.0f", bpq);
      table.AddRow({std::to_string(qdb), EngineKindName(kind), upd, cand,
                    std::to_string(r.prefilter_rejects), bytes});

      BenchLine("fig_scale")
          .Add("dataset", std::string("snb"))
          .Add("cell", std::string(cell.name))
          .Add("qdb", static_cast<uint64_t>(qdb))
          .Add("engine", std::string(EngineKindName(kind)))
          .Add("mode", std::string("routed"))
          .Add("updates_per_sec", r.UpdatesPerSec())
          .Add("ms_per_update", r.ms_per_update)
          .Add("candidates_per_update", r.CandidatesPerUpdate())
          .Add("routed_candidates", r.routed_candidates)
          .Add("prefilter_rejects", r.prefilter_rejects)
          .Add("memory_bytes", static_cast<uint64_t>(r.memory_bytes))
          .Add("bytes_per_query", bpq)
          .Add("index_ms_per_query", r.index_stats.MsecPerQuery())
          .Add("partial", static_cast<uint64_t>(r.partial ? 1 : 0))
          .Emit();
      std::printf("  |QDB|=%zu %s done\n", qdb, EngineKindName(kind));
      std::fflush(stdout);
    }
  }
  std::printf("\n");
  PrintTable(table, opts);
  return 0;
}

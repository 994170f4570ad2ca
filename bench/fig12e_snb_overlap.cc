// Reproduces paper Fig. 12(e): query answering time when varying the query
// overlap o over 25%..65%. More shared sub-patterns let TRIC cluster more
// covering paths into shared trie prefixes, so its curve should flatten or
// drop with o while the no-sharing baselines barely benefit.

#include "bench/harness.h"

int main(int argc, char** argv) {
  using namespace gstream;
  using namespace gstream::bench;
  BenchOptions opts = BenchOptions::FromArgs(argc, argv);
  PrintHeader("Fig 12(e)", "SNB: influence of query overlap o", opts);

  const size_t edges = opts.Pick(6'000, 100'000);
  const size_t num_queries = opts.Pick(400, 5000);
  const double overlaps[] = {0.25, 0.35, 0.45, 0.55, 0.65};
  std::printf("dataset=snb  |GE|=%zu  |QDB|=%zu  l=5  sigma=25%%\n\n", edges,
              num_queries);

  workload::Workload w = MakeWorkload("snb", edges, opts.seed);

  std::vector<std::string> header{"o"};
  for (EngineKind kind : PaperEngineKinds()) header.emplace_back(EngineKindName(kind));
  TextTable table(std::move(header));

  for (double o : overlaps) {
    workload::QueryGenConfig qc = BaselineQueryConfig(opts, num_queries);
    qc.overlap = o;
    workload::QuerySet qs = workload::GenerateQueries(w, qc);
    std::vector<std::string> row{TextTable::Num(o * 100, 0) + "%"};
    for (EngineKind kind : PaperEngineKinds()) {
      CellResult cell =
          RunCell(kind, qs.queries, w.stream, opts.cell_budget_seconds, opts.batch,
                  opts.threads);
      row.push_back(FormatMs(cell.ms_per_update, cell.partial));
      // The trajectory cell of the shared-finalize lever (DESIGN.md §9):
      // high overlap means many queries share covering-path signatures, so
      // final_join_passes should collapse toward #distinct signatures per
      // window and shared_finalize_groups counts the fan-outs. `partial`
      // marks budget-clipped cells — their updates/s is not comparable.
      BenchLine("fig12e_overlap")
          .Add("dataset", std::string("snb"))
          .Add("engine", std::string(EngineKindName(kind)))
          .Add("exec", opts.batch > 1
                           ? "batch" + std::to_string(opts.batch)
                           : std::string("per-update"))
          .Add("finalize", std::string("shared"))
          .Add("overlap", o)
          .Add("updates_per_sec", cell.UpdatesPerSec())
          .Add("updates_applied", static_cast<uint64_t>(cell.updates_applied))
          .Add("partial", static_cast<uint64_t>(cell.partial ? 1 : 0))
          .Add("final_join_passes", cell.final_join_passes)
          .Add("shared_finalize_groups", cell.shared_finalize_groups)
          .Emit();
    }
    table.AddRow(std::move(row));
    std::printf("  o=%.0f%% done\n", o * 100);
    std::fflush(stdout);
  }
  std::printf("\n");
  PrintTable(table, opts);

  // Multi-tenant duplication cell (DESIGN.md §9): the generated sets above
  // are text-deduplicated, so whole-query signature collisions are rare and
  // the covering-path sharing lever is the trie's prefix clustering. The
  // production regime the shared-finalize planner targets is different: many
  // tenants registering the *same* pattern. |QDB|/T distinct patterns, each
  // registered by T tenants, batched windows — shared finalization runs one
  // final-join pass per signature group, so final_join_passes should match a
  // single tenant's count (DESIGN.md §9.3 has the measured per-query A/B).
  {
    const size_t tenants = 4;
    const size_t tenant_batch = opts.batch > 1 ? opts.batch : 64;
    workload::QueryGenConfig qc = BaselineQueryConfig(opts, num_queries / tenants);
    qc.overlap = 0.35;
    workload::QuerySet qs = workload::GenerateQueries(w, qc);
    std::vector<QueryPattern> dup;
    dup.reserve(qs.queries.size() * tenants);
    for (size_t t = 0; t < tenants; ++t)
      dup.insert(dup.end(), qs.queries.begin(), qs.queries.end());

    std::printf("multi-tenant cell: %zu distinct patterns x %zu tenants, "
                "batch=%zu\n",
                qs.queries.size(), tenants, tenant_batch);
    TextTable ttable({"engine", "ms/upd", "final joins", "shared"});
    for (EngineKind kind : PaperEngineKinds()) {
      if (kind == EngineKind::kGraphDb) continue;  // no final-join stage
      CellResult cell = RunCell(kind, dup, w.stream, opts.cell_budget_seconds,
                                tenant_batch, opts.threads);
      ttable.AddRow({EngineKindName(kind), FormatMs(cell.ms_per_update, cell.partial),
                     std::to_string(cell.final_join_passes),
                     std::to_string(cell.shared_finalize_groups)});
      BenchLine("fig12e_tenants")
          .Add("dataset", std::string("snb"))
          .Add("engine", std::string(EngineKindName(kind)))
          .Add("exec", "batch" + std::to_string(tenant_batch))
          .Add("finalize", std::string("shared"))
          .Add("tenants", static_cast<uint64_t>(tenants))
          .Add("updates_per_sec", cell.UpdatesPerSec())
          .Add("updates_applied", static_cast<uint64_t>(cell.updates_applied))
          .Add("partial", static_cast<uint64_t>(cell.partial ? 1 : 0))
          .Add("final_join_passes", cell.final_join_passes)
          .Add("shared_finalize_groups", cell.shared_finalize_groups)
          .Emit();
    }
    std::printf("\n");
    PrintTable(ttable, opts);
  }
  return 0;
}

// Protein-interaction monitoring over the BioGRID-like stream (paper §2:
// PPI repositories are "constantly updated due to additions and
// invalidations of interactions, while scientists manually query PPIs to
// discover new patterns"): standing queries around proteins of interest.
// This is also the paper's stress case — a single edge label means every
// update affects every query.
//
//   build/examples/ppi_monitoring [--updates=20000]

#include <cstdio>
#include <memory>

#include "common/flags.h"
#include "common/timer.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "workload/bio.h"

using namespace gstream;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const size_t updates =
      static_cast<size_t>(flags.GetPositiveInt("updates", 20'000));

  workload::BioConfig config;
  config.num_updates = updates;
  workload::Workload w = workload::GenerateBio(config);
  std::printf("generated BioGRID-like stream: %zu interactions, %zu proteins\n",
              w.stream.size(), w.stream.CountVertices(w.stream.size()));

  // Standing queries a structural biologist might keep open. protein_0 and
  // protein_1 are the oldest (hence best-connected) proteins.
  struct Watch {
    const char* description;
    const char* pattern;
  };
  const Watch watches[] = {
      {"direct partners of protein_0", "(protein_0)-[interacts]->(?x)"},
      {"bridges protein_0 -> ? -> protein_1",
       "(protein_0)-[interacts]->(?x); (?x)-[interacts]->(protein_1)"},
      {"two-hop neighbourhood of protein_2",
       "(protein_2)-[interacts]->(?x); (?x)-[interacts]->(?y)"},
      {"feedback loops through protein_3",
       "(protein_3)-[interacts]->(?x); (?x)-[interacts]->(protein_3)"},
  };

  for (EngineKind kind : {EngineKind::kTric, EngineKind::kTricPlus}) {
    auto engine = CreateEngine(kind);
    for (QueryId qid = 0; qid < 4; ++qid) {
      ParseResult parsed = ParsePattern(watches[qid].pattern, *w.interner);
      if (!parsed.ok) {
        std::fprintf(stderr, "parse error: %s\n", parsed.error.c_str());
        return 1;
      }
      engine->AddQuery(qid, parsed.pattern);
    }

    uint64_t hits[4] = {0, 0, 0, 0};
    WallTimer timer;
    for (size_t i = 0; i < w.stream.size(); ++i) {
      UpdateResult r = engine->ApplyUpdate(w.stream[i]);
      for (auto [qid, count] : r.per_query) hits[qid] += count;
    }
    const double ms = timer.ElapsedMillis();
    std::printf("%-6s: %zu updates in %.1f ms (%.4f ms/update)\n",
                engine->name().c_str(), w.stream.size(), ms, ms / w.stream.size());
    for (QueryId qid = 0; qid < 4; ++qid)
      std::printf("  %-42s : %llu notifications\n", watches[qid].description,
                  static_cast<unsigned long long>(hits[qid]));
  }
  return 0;
}

// Road-network monitoring over the TAXI-like stream (paper §2: "subgraph
// matching over road networks could capture traffic events, and taxi route
// pricing"): continuous watches over hot zones, round trips, and driver
// behaviour.
//
//   build/examples/taxi_monitoring [--updates=30000]

#include <cstdio>
#include <memory>

#include "common/flags.h"
#include "common/timer.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "workload/taxi.h"

using namespace gstream;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const size_t updates =
      static_cast<size_t>(flags.GetPositiveInt("updates", 30'000));

  workload::TaxiConfig config;
  config.num_updates = updates;
  workload::Workload w = workload::GenerateTaxi(config);
  std::printf("generated TAXI-like stream: %zu updates, %zu vertices\n",
              w.stream.size(), w.stream.CountVertices(w.stream.size()));

  struct Watch {
    const char* description;
    const char* pattern;
  };
  const Watch watches[] = {
      {"card-paid rides out of the airport zone",
       "(?ride)-[pickupAt]->(zone_0); (?ride)-[paidBy]->(card_1)"},
      {"round trips (same pickup and dropoff zone)",
       "(?ride)-[pickupAt]->(?z); (?ride)-[dropoffAt]->(?z)"},
      {"rides on medallion_3 with an identified driver",
       "(?ride)-[byMedallion]->(medallion_3); (?ride)-[drivenBy]->(?d)"},
      {"driver licensed on medallion_3 picking up downtown",
       "(?d)-[drives]->(medallion_3); (?ride)-[drivenBy]->(?d);"
       "(?ride)-[pickupAt]->(zone_1)"},
  };

  auto engine = CreateEngine(EngineKind::kTricPlus);
  for (QueryId qid = 0; qid < 4; ++qid) {
    ParseResult parsed = ParsePattern(watches[qid].pattern, *w.interner);
    if (!parsed.ok) {
      std::fprintf(stderr, "parse error in watch %u: %s\n", qid,
                   parsed.error.c_str());
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

  std::printf("%s processed %zu updates in %.1f ms (%.4f ms/update)\n",
              engine->name().c_str(), w.stream.size(), ms, ms / w.stream.size());
  for (QueryId qid = 0; qid < 4; ++qid)
    std::printf("  watch %u — %-48s : %llu notifications\n", qid,
                watches[qid].description, static_cast<unsigned long long>(hits[qid]));
  return 0;
}

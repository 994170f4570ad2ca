// Check-in alerts on a synthetic social network — the paper's Fig. 3
// scenario ("notify me when two friends check in at the same place in Rio")
// running against the SNB-like generator at realistic volume, with all seven
// engines side by side on the same stream.
//
//   build/examples/checkin_alerts [--updates=20000]

#include <cstdio>
#include <memory>
#include <vector>

#include "common/flags.h"
#include "common/timer.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "workload/snb.h"

using namespace gstream;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const size_t updates =
      static_cast<size_t>(flags.GetPositiveInt("updates", 20'000));

  workload::SnbConfig config;
  config.num_updates = updates;
  workload::Workload w = workload::GenerateSnb(config);
  std::printf("generated SNB-like stream: %zu updates, %zu vertices\n",
              w.stream.size(), w.stream.CountVertices(w.stream.size()));

  // The Fig. 3 pattern plus a few operational variants (note the shared
  // sub-patterns across them: TRIC indexes those once).
  const char* patterns[] = {
      "(?p1)-[knows]->(?p2); (?p1)-[checksIn]->(?plc); (?p2)-[checksIn]->(?plc);"
      "(?plc)-[partOf]->(region_0)",
      "(?p1)-[knows]->(?p2); (?p1)-[checksIn]->(?plc); (?p2)-[checksIn]->(?plc)",
      "(?p1)-[checksIn]->(place_7)",
      "(?p1)-[knows]->(?p2); (?p2)-[checksIn]->(place_7)",
  };

  for (EngineKind kind : PaperEngineKinds()) {
    auto engine = CreateEngine(kind);
    QueryId qid = 0;
    for (const char* p : patterns) {
      ParseResult parsed = ParsePattern(p, *w.interner);
      if (!parsed.ok) {
        std::fprintf(stderr, "parse error: %s\n", parsed.error.c_str());
        return 1;
      }
      engine->AddQuery(qid++, parsed.pattern);
    }

    WallTimer timer;
    uint64_t alerts = 0;
    size_t first_alert_at = 0;
    for (size_t i = 0; i < w.stream.size(); ++i) {
      UpdateResult r = engine->ApplyUpdate(w.stream[i]);
      alerts += r.new_embeddings;
      if (alerts > 0 && first_alert_at == 0) first_alert_at = i + 1;
    }
    std::printf(
        "%-8s processed %zu updates in %7.1f ms (%0.4f ms/update), "
        "%llu alerts, first after %zu updates\n",
        engine->name().c_str(), w.stream.size(), timer.ElapsedMillis(),
        timer.ElapsedMillis() / w.stream.size(),
        static_cast<unsigned long long>(alerts), first_alert_at);
  }
  return 0;
}

#include "engine/engine.h"

#include <strings.h>

#include "baseline/inc_engine.h"
#include "baseline/inv_engine.h"
#include "common/logging.h"
#include "engine/naive_engine.h"
#include "graphdb/graphdb_engine.h"
#include "tric/tric_engine.h"

namespace gstream {

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kTric: return "TRIC";
    case EngineKind::kTricPlus: return "TRIC+";
    case EngineKind::kInv: return "INV";
    case EngineKind::kInvPlus: return "INV+";
    case EngineKind::kInc: return "INC";
    case EngineKind::kIncPlus: return "INC+";
    case EngineKind::kGraphDb: return "GraphDB";
    case EngineKind::kNaive: return "Naive";
  }
  return "?";
}

bool ParseEngineKind(const std::string& name, EngineKind* out) {
  std::vector<EngineKind> kinds = PaperEngineKinds();
  kinds.push_back(EngineKind::kNaive);
  for (EngineKind kind : kinds) {
    if (strcasecmp(name.c_str(), EngineKindName(kind)) == 0) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::unique_ptr<ContinuousEngine> CreateEngine(EngineKind kind) {
  switch (kind) {
    case EngineKind::kTric: return std::make_unique<tric::TricEngine>(false);
    case EngineKind::kTricPlus: return std::make_unique<tric::TricEngine>(true);
    case EngineKind::kInv: return std::make_unique<baseline::InvEngine>(false);
    case EngineKind::kInvPlus: return std::make_unique<baseline::InvEngine>(true);
    case EngineKind::kInc: return std::make_unique<baseline::IncEngine>(false);
    case EngineKind::kIncPlus: return std::make_unique<baseline::IncEngine>(true);
    case EngineKind::kGraphDb: return std::make_unique<graphdb::GraphDbEngine>();
    case EngineKind::kNaive: return std::make_unique<NaiveEngine>();
  }
  GS_CHECK(false);
  return nullptr;
}

std::vector<EngineKind> PaperEngineKinds() {
  return {EngineKind::kTric,    EngineKind::kTricPlus, EngineKind::kInv,
          EngineKind::kInvPlus, EngineKind::kInc,      EngineKind::kIncPlus,
          EngineKind::kGraphDb};
}

}  // namespace gstream

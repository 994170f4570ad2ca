#include "inputs.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>

#include "common/logging.h"
#include "measure.h"
#include "query/parser.h"
#include "workload/query_gen.h"
#include "workload/snb.h"
#include "workload/taxi.h"

namespace perfbench {
namespace {

using gstream::EdgeUpdate;
using gstream::QueryPattern;
using gstream::StringInterner;
namespace workload = gstream::workload;

// Workload sizes. Each is chosen so one cycle takes well under a second on a
// 4-vCPU host, leaving room for 15+ cycles per run (README.md, "Sizes").
constexpr size_t kQdbRecords = 2000;
constexpr size_t kQdbQueries = 2500;
constexpr size_t kChurnRecords = 6000;
constexpr size_t kChurnLive = 60;
constexpr size_t kChurnEvery = 10;
constexpr size_t kTaxiRecords = 20000;
constexpr size_t kTaxiQueries = 40;
constexpr uint64_t kTaxiRecordsPerSecond = 2;  // event-time shape of fig16a
constexpr uint64_t kTaxiWindowSeconds = 3600;
constexpr size_t kLoopBurstRecords = 32768;
constexpr size_t kLoopBurstSize = 4096;
constexpr size_t kLoopPacedRecords = 2048;
constexpr double kLoopPacedRate = 5000.0;

// Generator seeds: the library defaults, fixed for every run seed.
constexpr uint64_t kSnbSeed = gstream::workload::SnbConfig{}.seed;
constexpr uint64_t kTaxiSeed = gstream::workload::TaxiConfig{}.seed;
constexpr uint64_t kQuerySeed = gstream::workload::QueryGenConfig{}.seed;

/// Subscriptions of server-loopback: cheap, frequently firing patterns, so
/// the protocol/ring/window path carries the cost and >= 1000 notifications
/// arrive per cycle.
const char* const kLoopPatterns[] = {
    "(?a)-[knows]->(?b)",
    "(?a)-[likes]->(?m)",
    "(?p)-[posted]->(?m); (?m)-[hasTag]->(?t)",
    "(?a)-[knows]->(?b); (?b)-[knows]->(?c)",
};

workload::QueryGenConfig PaperBaseline(size_t num_queries) {
  // The paper's §6.1 baseline: l = 5, sigma = 25%, o = 35%.
  workload::QueryGenConfig qc;
  qc.num_queries = num_queries;
  qc.avg_size = 5.0;
  qc.selectivity = 0.25;
  qc.overlap = 0.35;
  qc.seed = kQuerySeed;
  return qc;
}

workload::Workload Snb(size_t records) {
  workload::SnbConfig c;
  c.num_updates = records;
  c.seed = kSnbSeed;
  return workload::GenerateSnb(c);
}

/// Renumbers interned strings by a seeded permutation: new id k names the
/// string that had id order[k]. Returns old id -> new id.
std::vector<uint32_t> Renumber(const StringInterner& from, std::mt19937_64& rng,
                               StringInterner& to) {
  std::vector<uint32_t> order(from.size());
  std::iota(order.begin(), order.end(), 0u);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<uint32_t> map(from.size());
  for (uint32_t k = 0; k < order.size(); ++k) {
    const uint32_t id = to.Intern(from.Lookup(order[k]));
    GS_CHECK(id == k);
    map[order[k]] = k;
  }
  return map;
}

QueryPattern Remap(const QueryPattern& q, const std::vector<uint32_t>& map) {
  GS_CHECK(!q.HasConstraints());
  QueryPattern out;
  for (uint32_t v = 0; v < q.NumVertices(); ++v) {
    const QueryPattern::Vertex& vx = q.vertex(v);
    if (vx.is_var) {
      out.AddVariable(vx.var_name);
    } else {
      out.AddLiteral(map[vx.literal]);
    }
  }
  for (const QueryPattern::Edge& e : q.edges())
    out.AddEdge(e.src, map[e.label], e.dst);
  return out;
}

uint64_t Digest(const Inputs& in) {
  uint64_t h = kFnvBasis;
  for (uint32_t id = 0; id < in.interner->size(); ++id)
    for (char c : in.interner->Lookup(id)) h = Fnv(h, static_cast<uint8_t>(c));
  for (const EdgeUpdate& u : in.records) {
    h = Fnv(h, u.src);
    h = Fnv(h, u.label);
    h = Fnv(h, u.dst);
    h = Fnv(h, static_cast<uint64_t>(u.op));
    h = Fnv(h, u.ts);
  }
  for (size_t i = 0; i < in.queries.size(); ++i) {
    h = Fnv(h, in.qids[i]);
    for (char c : in.queries[i].ToString(*in.interner))
      h = Fnv(h, static_cast<uint8_t>(c));
  }
  for (const std::string& p : in.patterns)
    for (char c : p) h = Fnv(h, static_cast<uint8_t>(c));
  return h;
}

/// Fills records, queries and the interner from a generated workload,
/// renumbered and with query ids permuted by `seed`.
void Adopt(const workload::Workload& w, const std::vector<QueryPattern>& queries,
           const std::vector<bool>& planted, uint64_t seed, Inputs& in) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  in.interner = std::make_shared<StringInterner>();
  const std::vector<uint32_t> map = Renumber(*w.interner, rng, *in.interner);
  in.records.reserve(w.stream.size());
  for (const EdgeUpdate& u : w.stream.updates()) {
    EdgeUpdate r = u;
    r.src = map[u.src];
    r.label = map[u.label];
    r.dst = map[u.dst];
    in.records.push_back(r);
  }
  for (const QueryPattern& q : queries) in.queries.push_back(Remap(q, map));
  in.planted = planted;
  in.qids.resize(queries.size());
  std::iota(in.qids.begin(), in.qids.end(), 0u);
  std::shuffle(in.qids.begin(), in.qids.end(), rng);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "snb-qdb2500", "snb-churn", "taxi-window", "server-loopback"};
  return names;
}

Inputs MakeInputs(const std::string& name, uint64_t seed) {
  Inputs in;
  if (name == "snb-qdb2500") {
    const workload::Workload w = Snb(kQdbRecords);
    const workload::QuerySet qs = workload::GenerateQueries(w, PaperBaseline(kQdbQueries));
    Adopt(w, qs.queries, qs.planted, seed, in);
    in.initial_queries = in.queries.size();
  } else if (name == "snb-churn") {
    const workload::Workload w = Snb(kChurnRecords);
    const size_t pool = kChurnLive + (kChurnRecords - 1) / kChurnEvery;
    const workload::QuerySet qs = workload::GenerateQueries(w, PaperBaseline(pool));
    Adopt(w, qs.queries, qs.planted, seed, in);
    in.initial_queries = kChurnLive;
    in.churn_every = kChurnEvery;
  } else if (name == "taxi-window") {
    workload::TaxiConfig c;
    c.num_updates = kTaxiRecords;
    c.seed = kTaxiSeed;
    workload::Workload w = workload::GenerateTaxi(c);
    const workload::QuerySet qs = workload::GenerateQueries(w, PaperBaseline(kTaxiQueries));
    Adopt(w, qs.queries, qs.planted, seed, in);
    for (size_t i = 0; i < in.records.size(); ++i)
      in.records[i].ts = i / kTaxiRecordsPerSecond;
    in.initial_queries = in.queries.size();
    in.window.policy = gstream::temporal::WindowPolicy::kTime;
    in.window.width = kTaxiWindowSeconds;
  } else if (name == "server-loopback") {
    const workload::Workload w = Snb(kLoopBurstRecords + kLoopPacedRecords);
    Adopt(w, {}, {}, seed, in);
    for (const char* text : kLoopPatterns) {
      gstream::ParseResult pr = gstream::ParsePattern(text, *in.interner);
      GS_CHECK_MSG(pr.ok, pr.error);
      in.patterns.push_back(text);
      in.queries.push_back(std::move(pr.pattern));
      in.planted.push_back(true);  // every subscription must fire
    }
    in.qids.resize(in.queries.size());
    std::iota(in.qids.begin(), in.qids.end(), 0u);
    in.initial_queries = in.queries.size();
    in.burst_records = kLoopBurstRecords;
    in.burst_size = kLoopBurstSize;
    in.paced_rate = kLoopPacedRate;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  in.digest = Digest(in);
  return in;
}

}  // namespace perfbench

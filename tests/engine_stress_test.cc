#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "engine/engine.h"
#include "query/parser.h"

namespace gstream {
namespace {

/// Adversarial micro-universes: every engine against the oracle on dense
/// random streams with tiny alphabets, where multi-position trie hits,
/// self-loops and literal collisions are the norm rather than the exception.
/// A `delete_frac` share of the updates deletes a random live edge; every
/// deletion is a window barrier, so batch 7 also runs windows cut short by
/// deletes, and batch 1 runs each insert as a window of one.
struct StressCase {
  const char* name;
  int vertices;
  int labels;
  size_t updates;
  uint64_t seed;
  double delete_frac = 0.0;
};

std::ostream& operator<<(std::ostream& os, const StressCase& c) {
  return os << c.name;
}

class EngineStressTest : public ::testing::TestWithParam<StressCase> {};

TEST_P(EngineStressTest, DenseRandomStreamsAgree) {
  const StressCase& c = GetParam();
  StringInterner in;
  Rng rng(c.seed);

  // Query zoo over the tiny alphabet: chains, stars, cycles, self-loops,
  // literal anchors — sizes 1..4.
  std::vector<std::string> patterns = {
      "(?a)-[l0]->(?b)",
      "(?a)-[l0]->(?b); (?b)-[l0]->(?c)",
      "(?a)-[l0]->(?b); (?b)-[l1]->(?c)",
      "(?a)-[l1]->(?b); (?b)-[l0]->(?a)",
      "(?a)-[l0]->(?a)",
      "(?a)-[l0]->(v0)",
      "(v1)-[l1]->(?b); (?b)-[l0]->(?c)",
      "(?c)-[l0]->(?x); (?c)-[l1]->(?y)",
      "(?x)-[l0]->(?c); (?y)-[l1]->(?c)",
      "(?a)-[l0]->(?b); (?b)-[l1]->(?c); (?c)-[l0]->(?a)",
      "(?a)-[l0]->(?b); (?b)-[l0]->(?c); (?c)-[l0]->(?d)",
      "(v0)-[l0]->(?b); (?b)-[l1]->(v1)",
  };

  std::vector<QueryPattern> queries;
  for (const std::string& text : patterns) {
    auto r = ParsePattern(text, in);
    ASSERT_TRUE(r.ok) << r.error;
    queries.push_back(r.pattern);
  }

  // The stream: random inserts (duplicates included), interleaved with
  // deletes of live edges.
  std::vector<EdgeUpdate> stream;
  std::vector<EdgeUpdate> live;
  for (size_t i = 0; i < c.updates; ++i) {
    if (c.delete_frac > 0.0 && !live.empty() && rng.Flip(c.delete_frac)) {
      const size_t victim = rng.Next(live.size());
      EdgeUpdate u = live[victim];
      u.op = UpdateOp::kDelete;
      live[victim] = live.back();
      live.pop_back();
      stream.push_back(u);
      continue;
    }
    EdgeUpdate u{
        in.Intern("v" + std::to_string(rng.Next(c.vertices))),
        in.Intern("l" + std::to_string(rng.Next(c.labels))),
        in.Intern("v" + std::to_string(rng.Next(c.vertices))),
        UpdateOp::kAdd,
    };
    const auto same_edge = [&](const EdgeUpdate& e) {
      return e.src == u.src && e.label == u.label && e.dst == u.dst;
    };
    if (std::none_of(live.begin(), live.end(), same_edge)) live.push_back(u);
    stream.push_back(u);
  }

  auto oracle = CreateEngine(EngineKind::kNaive);
  for (QueryId qid = 0; qid < queries.size(); ++qid) oracle->AddQuery(qid, queries[qid]);
  std::vector<UpdateResult> expected;
  for (const EdgeUpdate& u : stream) expected.push_back(oracle->ApplyUpdate(u));

  for (EngineKind kind : PaperEngineKinds()) {
    for (size_t batch : {size_t{1}, size_t{7}}) {
      auto e = CreateEngine(kind);
      for (QueryId qid = 0; qid < queries.size(); ++qid) e->AddQuery(qid, queries[qid]);
      for (size_t pos = 0; pos < stream.size(); pos += batch) {
        const size_t n = std::min(batch, stream.size() - pos);
        std::vector<UpdateResult> got = e->ApplyBatch(&stream[pos], n);
        ASSERT_EQ(got.size(), n) << e->name();
        for (size_t k = 0; k < n; ++k) {
          const size_t i = pos + k;
          const EdgeUpdate& u = stream[i];
          ASSERT_EQ(got[k].changed, expected[i].changed)
              << e->name() << " batch=" << batch << " update " << i;
          ASSERT_EQ(got[k].per_query, expected[i].per_query)
              << e->name() << " batch=" << batch << " diverged at update " << i
              << ": " << (u.op == UpdateOp::kDelete ? "-" : "") << "("
              << in.Lookup(u.src) << ")-[" << in.Lookup(u.label) << "]->("
              << in.Lookup(u.dst) << ")";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MicroUniverses, EngineStressTest,
    ::testing::Values(StressCase{"Tiny3x1", 3, 1, 60, 21},
                      StressCase{"Small4x2", 4, 2, 120, 22},
                      StressCase{"Medium6x2", 6, 2, 200, 23},
                      StressCase{"SelfLoopHeavy2x2", 2, 2, 40, 24},
                      StressCase{"Wide8x1", 8, 1, 180, 25},
                      StressCase{"TwoLabels5x2", 5, 2, 160, 26},
                      StressCase{"Tiny3x1Deletes", 3, 1, 90, 27, 0.4},
                      StressCase{"Small4x2Deletes", 4, 2, 160, 28, 0.3},
                      StressCase{"Medium6x2Deletes", 6, 2, 240, 29, 0.2},
                      StressCase{"SelfLoopHeavy2x2Deletes", 2, 2, 80, 30, 0.35},
                      StressCase{"TwoLabels5x2Deletes", 5, 2, 200, 31, 0.25}),
    [](const ::testing::TestParamInfo<StressCase>& info) { return info.param.name; });

/// Duplicate-heavy stream: most updates are repeats; engines must treat them
/// as no-ops bit-for-bit.
TEST(EngineStressDirected, DuplicateStorm) {
  StringInterner in;
  auto oracle = CreateEngine(EngineKind::kNaive);
  std::vector<std::unique_ptr<ContinuousEngine>> engines;
  for (EngineKind kind : PaperEngineKinds()) engines.push_back(CreateEngine(kind));
  auto q = ParsePattern("(?a)-[l]->(?b); (?b)-[l]->(?c)", in);
  oracle->AddQuery(0, q.pattern);
  for (auto& e : engines) e->AddQuery(0, q.pattern);

  Rng rng(31);
  for (int i = 0; i < 150; ++i) {
    EdgeUpdate u{in.Intern("v" + std::to_string(rng.Next(3))), in.Intern("l"),
                 in.Intern("v" + std::to_string(rng.Next(3))), UpdateOp::kAdd};
    UpdateResult expected = oracle->ApplyUpdate(u);
    for (auto& e : engines) {
      UpdateResult got = e->ApplyUpdate(u);
      ASSERT_EQ(got.changed, expected.changed) << e->name();
      ASSERT_EQ(got.per_query, expected.per_query) << e->name();
    }
  }
}

}  // namespace
}  // namespace gstream

#include <gtest/gtest.h>

#include "engine/driver.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "workload/query_gen.h"
#include "workload/snb.h"

namespace gstream {
namespace {

UpdateStream TinyStream(StringInterner& in, size_t n) {
  UpdateStream stream;
  LabelId r = in.Intern("r");
  for (uint32_t i = 0; i < n; ++i)
    stream.Append({in.Intern("v" + std::to_string(i)), r,
                   in.Intern("v" + std::to_string(i + 1)), UpdateOp::kAdd});
  return stream;
}

TEST(Driver, IndexQueriesCountsAndTimes) {
  StringInterner in;
  auto engine = CreateEngine(EngineKind::kTric);
  std::vector<QueryPattern> queries;
  for (int i = 0; i < 5; ++i)
    queries.push_back(ParsePattern("(?x)-[r" + std::to_string(i) + "]->(?y)", in).pattern);
  IndexStats stats = IndexQueries(*engine, queries);
  EXPECT_EQ(stats.queries_indexed, 5u);
  EXPECT_EQ(engine->NumQueries(), 5u);
  EXPECT_GE(stats.index_millis, 0.0);
  EXPECT_GE(stats.MsecPerQuery(), 0.0);
}

TEST(Driver, RunStreamAppliesEverythingWithoutBudget) {
  StringInterner in;
  auto engine = CreateEngine(EngineKind::kTricPlus);
  engine->AddQuery(1, ParsePattern("(?x)-[r]->(?y)", in).pattern);
  UpdateStream stream = TinyStream(in, 50);
  RunStats stats = RunStream(*engine, stream);
  EXPECT_EQ(stats.updates_applied, 50u);
  EXPECT_FALSE(stats.timed_out);
  EXPECT_EQ(stats.new_embeddings, 50u);
  EXPECT_EQ(stats.queries_satisfied, 1u);
  EXPECT_GT(stats.memory_bytes, 0u);
  EXPECT_GE(stats.MsecPerUpdate(), 0.0);
}

TEST(Driver, BudgetStopsLongRuns) {
  StringInterner in;
  // Several chain queries over one label: per-update naive recount.
  const QueryPattern chain =
      ParsePattern("(?a)-[r]->(?b); (?b)-[r]->(?c); (?c)-[r]->(?d)", in).pattern;
  UpdateStream stream;
  LabelId r = in.Intern("r");
  // Dense-ish graph so the oracle has real work per update.
  for (uint32_t i = 0; i < 60; ++i)
    for (uint32_t j = 0; j < 60; ++j)
      if (i != j) stream.Append({i, r, j, UpdateOp::kAdd});
  const auto make_engine = [&] {
    auto engine = CreateEngine(EngineKind::kNaive);  // slowest engine
    for (QueryId q = 0; q < 8; ++q) engine->AddQuery(q, chain);
    return engine;
  };
  // Once the budget trips no later event runs: the trailing registration
  // after the updates must not reach the engine.
  constexpr QueryId kLate = 100;
  std::vector<StreamEvent> events;
  for (const EdgeUpdate& u : stream.updates())
    events.push_back(StreamEvent::Update(u));
  events.push_back(StreamEvent::Add(kLate, chain));

  for (size_t window : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("batch_window " + std::to_string(window));
    RunConfig config;
    config.budget_seconds = 0.05;
    config.batch_window = window;

    auto engine = make_engine();
    RunStats stats = RunStream(*engine, stream, config);
    EXPECT_TRUE(stats.timed_out);
    EXPECT_LT(stats.updates_applied, stream.size());

    auto mixed_engine = make_engine();
    MixedRunStats mixed = RunMixedStream(*mixed_engine, events, config);
    EXPECT_TRUE(mixed.timed_out);
    EXPECT_LT(mixed.updates_applied, stream.size());
    EXPECT_EQ(mixed.queries_added, 0u);
    EXPECT_FALSE(mixed_engine->HasQuery(kLate));
  }
}

TEST(Driver, SatisfiedQueriesMatchSigma) {
  workload::SnbConfig sc;
  sc.num_updates = 2500;
  workload::Workload w = workload::GenerateSnb(sc);
  workload::QueryGenConfig qc;
  qc.num_queries = 40;
  qc.selectivity = 0.25;
  workload::QuerySet qs = workload::GenerateQueries(w, qc);

  auto engine = CreateEngine(EngineKind::kTricPlus);
  IndexQueries(*engine, qs.queries);
  RunStats stats = RunStream(*engine, w.stream);
  // Exactly the planted fraction is ultimately satisfied.
  EXPECT_EQ(stats.queries_satisfied, qs.num_planted);
}

TEST(Budget, ExceededTripsAndSticks) {
  Budget budget;
  EXPECT_FALSE(budget.ExceededNow());  // no deadline set
  budget.SetDeadlineAfter(-1.0);       // already past
  EXPECT_TRUE(budget.ExceededNow());
  EXPECT_TRUE(budget.ExceededNow());
  budget.SetDeadlineAfter(100.0);
  EXPECT_FALSE(budget.ExceededNow());
  budget.ClearDeadline();
  EXPECT_FALSE(budget.ExceededNow());
}

TEST(Budget, SampledPollEventuallyTrips) {
  Budget budget;
  budget.SetDeadlineAfter(-1.0);
  bool tripped = false;
  for (int i = 0; i < 2000 && !tripped; ++i) tripped = budget.Exceeded();
  EXPECT_TRUE(tripped);
}

}  // namespace
}  // namespace gstream

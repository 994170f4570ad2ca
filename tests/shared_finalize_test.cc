#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "query/parser.h"
#include "workload/query_gen.h"
#include "workload/snb.h"
#include "workload/taxi.h"

namespace gstream {
namespace {

/// Shared window finalization (DESIGN.md §9) must be a pure execution
/// strategy: grouping signature-equal queries and fanning one tagged
/// final-join pass out to the whole group has to reproduce the naive
/// oracle's per-update results exactly — across every view engine, window
/// partition, thread count, and mid-stream query lifecycle event (the fig12e
/// high-overlap regime is where the sharing actually collapses work, so that
/// is what these suites stress). The pass counters are checked exactly: one
/// pass per (distinct signature, window).

const EngineKind kViewKinds[] = {EngineKind::kTric, EngineKind::kTricPlus,
                                 EngineKind::kInv,  EngineKind::kInvPlus,
                                 EngineKind::kInc,  EngineKind::kIncPlus};

QueryPattern Parse(const std::string& text, StringInterner& in) {
  ParseResult r = ParsePattern(text, in);
  EXPECT_TRUE(r.ok) << r.error;
  return r.pattern;
}

/// Asserts `got` (a batch window starting at stream position `pos`) equals
/// the oracle's per-update results for the same updates.
void ExpectMatchesOracle(const std::vector<UpdateResult>& got,
                         const std::vector<UpdateResult>& expected, size_t pos,
                         const std::string& label) {
  ASSERT_EQ(got.size(), expected.size()) << label;
  for (size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].changed, expected[k].changed) << label << " at update " << pos + k;
    ASSERT_EQ(got[k].per_query, expected[k].per_query)
        << label << " at update " << pos + k;
    ASSERT_EQ(got[k].triggered, expected[k].triggered)
        << label << " at update " << pos + k;
  }
}

/// Feeds `updates` one at a time to the naive oracle.
std::vector<UpdateResult> OracleWindow(ContinuousEngine& oracle,
                                       const EdgeUpdate* updates, size_t n) {
  std::vector<UpdateResult> out;
  for (size_t k = 0; k < n; ++k) out.push_back(oracle.ApplyUpdate(updates[k]));
  return out;
}

/// Applies `updates` in windows of `window`, removing the queries listed in
/// `removals` (keyed by stream position) between windows, and checks every
/// update's result against the naive oracle.
void ExpectSharedAgrees(EngineKind kind, const std::vector<QueryPattern>& queries,
                        const std::vector<EdgeUpdate>& updates, size_t window,
                        int threads,
                        const std::map<size_t, std::vector<QueryId>>& removals,
                        const std::string& label) {
  auto engine = CreateEngine(kind);
  auto oracle = CreateEngine(EngineKind::kNaive);
  for (QueryId qid = 0; qid < queries.size(); ++qid) {
    engine->AddQuery(qid, queries[qid]);
    oracle->AddQuery(qid, queries[qid]);
  }
  engine->SetBatchThreads(threads);
  const std::string where = label + ": " + engine->name() + " window=" +
                            std::to_string(window) + " threads=" +
                            std::to_string(threads);

  size_t pos = 0;
  while (pos < updates.size()) {
    auto rm = removals.find(pos);
    if (rm != removals.end()) {
      for (QueryId qid : rm->second) {
        ASSERT_TRUE(engine->RemoveQuery(qid)) << label;
        ASSERT_TRUE(oracle->RemoveQuery(qid)) << label;
      }
    }
    const size_t n = std::min(window, updates.size() - pos);
    // No budget, so no short windows.
    ExpectMatchesOracle(engine->ApplyBatch(&updates[pos], n),
                        OracleWindow(*oracle, &updates[pos], n), pos, where);
    if (::testing::Test::HasFatalFailure()) return;
    pos += n;
  }
}

TEST(SharedFinalizeDirected, PassesCollapseToDistinctSignatures) {
  // The acceptance gauge: K queries per signature, one delta window — the
  // engine runs exactly one pass per *distinct signature*, however many
  // queries share it. Two signatures, four queries each.
  StringInterner in;
  QueryPattern chain = Parse("(?a)-[knows]->(?b); (?b)-[knows]->(?c)", in);
  QueryPattern single = Parse("(?x)-[likes]->(?y)", in);
  LabelId knows = in.Intern("knows");
  LabelId likes = in.Intern("likes");
  auto v = [&](int i) { return in.Intern("v" + std::to_string(i)); };

  std::vector<EdgeUpdate> inserts;
  for (int i = 0; i < 8; ++i)
    inserts.push_back({v(i), knows, v(i + 1), UpdateOp::kAdd});
  for (int i = 0; i < 4; ++i)
    inserts.push_back({v(i), likes, v(i + 7), UpdateOp::kAdd});

  constexpr QueryId kPerSignature = 4;
  for (EngineKind kind : kViewKinds) {
    auto shared = CreateEngine(kind);
    auto oracle = CreateEngine(EngineKind::kNaive);
    for (QueryId q = 0; q < kPerSignature; ++q) {
      shared->AddQuery(q, chain);
      oracle->AddQuery(q, chain);
      shared->AddQuery(kPerSignature + q, single);
      oracle->AddQuery(kPerSignature + q, single);
    }

    ExpectMatchesOracle(shared->ApplyBatch(inserts.data(), inserts.size()),
                        OracleWindow(*oracle, inserts.data(), inserts.size()), 0,
                        shared->name());

    // One window, both signatures affected and feasible: 2 passes for 8
    // queries, each fanned out to its 4 members.
    EXPECT_EQ(shared->final_join_passes(), 2u) << shared->name();
    EXPECT_EQ(shared->shared_finalize_groups(), 2u) << shared->name();
  }
}

TEST(SharedFinalizeDirected, RemoveQueryInvalidatesSignatureGroups) {
  // Mid-stream RemoveQuery of a group member must rebuild the grouping: a
  // 3-query group keeps sharing as a 2-query group, and the last survivor
  // is a singleton group (its pass serves nobody else).
  StringInterner in;
  QueryPattern q = Parse("(?a)-[r]->(?b); (?b)-[r]->(?c)", in);
  LabelId rl = in.Intern("r");
  auto v = [&](int i) { return in.Intern("v" + std::to_string(i)); };
  auto window_at = [&](int base) {
    std::vector<EdgeUpdate> w;
    for (int i = base; i < base + 6; ++i)
      w.push_back({v(i), rl, v(i + 1), UpdateOp::kAdd});
    return w;
  };

  for (EngineKind kind : kViewKinds) {
    auto engine = CreateEngine(kind);
    engine->AddQuery(0, q);
    engine->AddQuery(1, q);
    engine->AddQuery(2, q);

    std::vector<EdgeUpdate> w1 = window_at(0);
    engine->ApplyBatch(w1.data(), w1.size());
    EXPECT_EQ(engine->final_join_passes(), 1u) << engine->name();
    EXPECT_EQ(engine->shared_finalize_groups(), 1u) << engine->name();

    ASSERT_TRUE(engine->RemoveQuery(1));
    std::vector<EdgeUpdate> w2 = window_at(20);
    engine->ApplyBatch(w2.data(), w2.size());
    EXPECT_EQ(engine->final_join_passes(), 2u)
        << engine->name() << " (2-member group still shares one pass)";
    EXPECT_EQ(engine->shared_finalize_groups(), 2u) << engine->name();

    ASSERT_TRUE(engine->RemoveQuery(0));
    std::vector<EdgeUpdate> w3 = window_at(40);
    engine->ApplyBatch(w3.data(), w3.size());
    EXPECT_EQ(engine->final_join_passes(), 3u)
        << engine->name() << " (singleton group: one unshared pass)";
    EXPECT_EQ(engine->shared_finalize_groups(), 2u)
        << engine->name() << " (no new shared pass after the group dissolved)";
  }
}

TEST(SharedFinalizeDirected, MidStreamAddQueryJoinsGroup) {
  // A query registered between windows joins an existing signature group and
  // is served by the shared pass from the next window on — with the same
  // notifications the oracle reports (INV's diff baseline is the
  // interesting case: the newcomer snapshots its total at registration).
  StringInterner in;
  QueryPattern q = Parse("(?a)-[r]->(?b); (?b)-[s]->(?c)", in);
  LabelId rl = in.Intern("r");
  LabelId sl = in.Intern("s");
  auto v = [&](int i) { return in.Intern("v" + std::to_string(i)); };

  std::vector<EdgeUpdate> w1, w2;
  for (int i = 0; i < 4; ++i) {
    w1.push_back({v(2 * i), rl, v(2 * i + 1), UpdateOp::kAdd});
    w1.push_back({v(2 * i + 1), sl, v(2 * i + 2), UpdateOp::kAdd});
  }
  for (int i = 10; i < 14; ++i) {
    w2.push_back({v(2 * i), rl, v(2 * i + 1), UpdateOp::kAdd});
    w2.push_back({v(2 * i + 1), sl, v(2 * i + 2), UpdateOp::kAdd});
    w2.push_back({v(2 * i + 2), rl, v(2 * i), UpdateOp::kAdd});
  }

  for (EngineKind kind : kViewKinds) {
    auto shared = CreateEngine(kind);
    auto oracle = CreateEngine(EngineKind::kNaive);
    shared->AddQuery(0, q);
    oracle->AddQuery(0, q);

    ExpectMatchesOracle(shared->ApplyBatch(w1.data(), w1.size()),
                        OracleWindow(*oracle, w1.data(), w1.size()), 0,
                        shared->name());
    EXPECT_EQ(shared->final_join_passes(), 1u) << shared->name();
    EXPECT_EQ(shared->shared_finalize_groups(), 0u) << shared->name();

    shared->AddQuery(1, q);
    oracle->AddQuery(1, q);
    // INV's registration snapshot counts a pass of its own.
    const uint64_t passes_before = shared->final_join_passes();

    ExpectMatchesOracle(shared->ApplyBatch(w2.data(), w2.size()),
                        OracleWindow(*oracle, w2.data(), w2.size()), w1.size(),
                        shared->name());
    EXPECT_EQ(shared->final_join_passes(), passes_before + 1)
        << shared->name() << " (newcomer served by the group's pass)";
    EXPECT_EQ(shared->shared_finalize_groups(), 1u) << shared->name();
  }
}

TEST(SharedFinalizeDirected, DifferentConstraintsNeverGroup) {
  // Same structure, different §4.3 property constraints: the filter spec is
  // part of the signature, so these queries must not share a pass (a fanned-
  // out result would leak one query's constraint filtering into the other).
  StringInterner in;
  LabelId rl = in.Intern("r");
  LabelId age = in.Intern("age");
  auto v = [&](int i) { return in.Intern("v" + std::to_string(i)); };

  QueryPattern plain;
  {
    uint32_t a = plain.AddVariable("?a");
    uint32_t b = plain.AddVariable("?b");
    plain.AddEdge(a, rl, b);
  }
  QueryPattern constrained = plain;
  constrained.AddConstraint(0, age, QueryPattern::CmpOp::kGe, 5);

  std::vector<EdgeUpdate> inserts;
  for (int i = 0; i < 6; ++i)
    inserts.push_back({v(i), rl, v(i + 1), UpdateOp::kAdd});

  for (EngineKind kind : kViewKinds) {
    auto engine = CreateEngine(kind);
    engine->AddQuery(0, plain);
    engine->AddQuery(1, constrained);
    std::vector<UpdateResult> got = engine->ApplyBatch(inserts.data(), inserts.size());
    EXPECT_EQ(engine->final_join_passes(), 2u) << engine->name();
    EXPECT_EQ(engine->shared_finalize_groups(), 0u) << engine->name();
    // No property store attached: the constrained query matches nothing, the
    // plain one matches every insert.
    for (size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(got[k].per_query.size(), 1u) << engine->name() << " update " << k;
      EXPECT_EQ(got[k].per_query[0].first, 0u) << engine->name();
    }
  }
}

TEST(SharedFinalizeAgreement, HighOverlapRandomizedStreams) {
  // fig12e-style: generated query sets at the paper's highest overlap, so
  // many queries share covering-path signatures. Shared finalize must agree
  // with the naive oracle across datasets, window sizes, and thread counts —
  // including deletions (window barriers) inside the stream.
  struct Case {
    const char* dataset;
    size_t stream_len;
    size_t num_queries;
    size_t window;
    int threads;
    uint64_t seed;
  };
  const Case cases[] = {
      {"snb", 260, 40, 16, 1, 7},
      {"snb", 260, 40, 32, 3, 11},
      {"taxi", 220, 32, 7, 1, 13},
      {"taxi", 220, 32, 16, 3, 17},
  };
  for (const Case& c : cases) {
    workload::Workload w;
    if (std::string(c.dataset) == "snb") {
      workload::SnbConfig config;
      config.num_updates = c.stream_len;
      config.seed = c.seed;
      config.num_places = 8;
      config.num_tags = 8;
      w = workload::GenerateSnb(config);
    } else {
      workload::TaxiConfig config;
      config.num_updates = c.stream_len;
      config.seed = c.seed;
      config.num_zones = 10;
      w = workload::GenerateTaxi(config);
    }
    workload::QueryGenConfig qcfg;
    qcfg.num_queries = c.num_queries;
    qcfg.avg_size = 4.0;
    qcfg.selectivity = 0.25;
    qcfg.overlap = 0.65;
    qcfg.seed = c.seed * 131 + 5;
    workload::QuerySet qs = workload::GenerateQueries(w, qcfg);

    for (EngineKind kind : kViewKinds) {
      ExpectSharedAgrees(kind, qs.queries, w.stream.updates(), c.window,
                         c.threads, {}, std::string("overlap-") + c.dataset);
    }
  }
}

TEST(SharedFinalizeAgreement, HighOverlapWithMidStreamRemovals) {
  // The lifecycle interaction: removing group members (and non-members)
  // mid-stream must invalidate the signature cache — a stale group serving a
  // removed query, or a survivor missing its fan-out, would show up as a
  // per-update diff against the oracle.
  workload::SnbConfig config;
  config.num_updates = 300;
  config.seed = 23;
  config.num_places = 8;
  config.num_tags = 8;
  workload::Workload w = workload::GenerateSnb(config);

  workload::QueryGenConfig qcfg;
  qcfg.num_queries = 36;
  qcfg.avg_size = 4.0;
  qcfg.selectivity = 0.25;
  qcfg.overlap = 0.65;
  qcfg.seed = 1009;
  workload::QuerySet qs = workload::GenerateQueries(w, qcfg);

  // Remove a third of the query set in two waves between windows.
  std::map<size_t, std::vector<QueryId>> removals;
  for (QueryId q = 0; q < 6; ++q) removals[96].push_back(q * 3);
  for (QueryId q = 0; q < 6; ++q) removals[192].push_back(q * 3 + 1);

  for (EngineKind kind : kViewKinds) {
    ExpectSharedAgrees(kind, qs.queries, w.stream.updates(), /*window=*/32,
                       /*threads=*/1, removals, "churned-overlap");
    ExpectSharedAgrees(kind, qs.queries, w.stream.updates(), /*window=*/24,
                       /*threads=*/3, removals, "churned-overlap-threads");
  }
}

TEST(SharedFinalizeAgreement, ParallelSignatureBuildMatchesSingleThread) {
  // EnsureFinalizeGroups fans the signature *encode* loop over the batch
  // pool once the rebuild covers >= 64 queries (view_engine_base.cc's
  // kParallelSignatureMin); the grouping itself stays sequential, so a
  // threaded build must produce exactly the single-threaded build's groups
  // — same group count, same pass collapse, same per-update results.
  workload::SnbConfig config;
  config.num_updates = 240;
  config.seed = 29;
  config.num_places = 8;
  config.num_tags = 8;
  workload::Workload w = workload::GenerateSnb(config);

  workload::QueryGenConfig qcfg;
  qcfg.num_queries = 96;  // Above the parallel-encode threshold.
  qcfg.avg_size = 4.0;
  qcfg.selectivity = 0.25;
  qcfg.overlap = 0.65;
  qcfg.seed = 2027;
  workload::QuerySet qs = workload::GenerateQueries(w, qcfg);

  for (EngineKind kind : kViewKinds) {
    // Oracle agreement of the threaded build.
    ExpectSharedAgrees(kind, qs.queries, w.stream.updates(), /*window=*/32,
                       /*threads=*/4, {}, "parallel-signatures");

    // Grouping determinism: the pool-parallel build lands on the identical
    // group structure and pass counts as the single-threaded build.
    auto threaded = CreateEngine(kind);
    auto single = CreateEngine(kind);
    for (QueryId qid = 0; qid < qs.queries.size(); ++qid) {
      threaded->AddQuery(qid, qs.queries[qid]);
      single->AddQuery(qid, qs.queries[qid]);
    }
    threaded->SetBatchThreads(4);
    const auto& updates = w.stream.updates();
    constexpr size_t kWindow = 32;
    for (size_t pos = 0; pos < updates.size(); pos += kWindow) {
      const size_t n = std::min(kWindow, updates.size() - pos);
      threaded->ApplyBatch(&updates[pos], n);
      single->ApplyBatch(&updates[pos], n);
    }
    EXPECT_EQ(threaded->shared_finalize_groups(), single->shared_finalize_groups())
        << threaded->name();
    EXPECT_EQ(threaded->final_join_passes(), single->final_join_passes())
        << threaded->name();
    EXPECT_EQ(threaded->StateFingerprint(), single->StateFingerprint())
        << threaded->name();
  }
}

}  // namespace
}  // namespace gstream

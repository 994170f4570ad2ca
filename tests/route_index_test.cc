#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "query/parser.h"
#include "query/route_index.h"
#include "workload/query_gen.h"
#include "workload/snb.h"

namespace gstream {
namespace {

/// Query routing index suite (DESIGN.md §12). The invariants under test:
///  * RouteIndex::Route returns exactly the brute-force match set (every
///    target whose pattern the edge satisfies, each once) under arbitrary
///    Add/Remove churn and deferred compaction;
///  * the prefilter is exact per label/endpoint class and refcounted;
///  * routed engine dispatch is a pure execution strategy: results identical
///    to the naive oracle's, per update, across all view engines, under
///    mixed AddQuery/RemoveQuery churn;
///  * candidate work collapses: tenant-duplicated query DBs route exactly
///    the candidate count of a single tenant;
///  * edges whose label no query mentions are rejected by the prefilter
///    without touching any engine view.

const EngineKind kViewKinds[] = {EngineKind::kTric, EngineKind::kTricPlus,
                                 EngineKind::kInv,  EngineKind::kInvPlus,
                                 EngineKind::kInc,  EngineKind::kIncPlus};

QueryPattern Parse(const std::string& text, StringInterner& in) {
  ParseResult r = ParsePattern(text, in);
  EXPECT_TRUE(r.ok) << r.error;
  return r.pattern;
}

// ---------------------------------------------------------------- unit oracle

TEST(RouteIndexUnit, RouteMatchesBruteForceUnderChurn) {
  std::mt19937 rng(1234);
  const auto pick_vertex = [&](double var_prob) -> VertexId {
    if (std::uniform_real_distribution<>(0, 1)(rng) < var_prob)
      return kNoVertex;
    return static_cast<VertexId>(std::uniform_int_distribution<>(0, 9)(rng));
  };
  const auto random_pattern = [&] {
    GenericEdgePattern p;
    p.src = pick_vertex(0.5);
    p.label = static_cast<LabelId>(std::uniform_int_distribution<>(0, 7)(rng));
    p.dst = pick_vertex(0.5);
    return p;
  };

  RouteIndex<uint32_t> index;
  std::vector<std::pair<GenericEdgePattern, uint32_t>> live;
  uint32_t next_target = 0;

  const auto check_all = [&] {
    // Probe every (src, label, dst) corner of the small id space, so probes
    // hit literal hits, literal misses, and unregistered labels alike.
    for (VertexId s = 0; s < 10; ++s) {
      for (LabelId l = 0; l < 9; ++l) {  // 8 is never registered
        for (VertexId t = 0; t < 10; ++t) {
          const EdgeUpdate u{s, l, t, UpdateOp::kAdd};
          std::vector<uint32_t> expected;
          for (const auto& [p, target] : live)
            if (p.Matches(u)) expected.push_back(target);
          std::sort(expected.begin(), expected.end());
          expected.erase(std::unique(expected.begin(), expected.end()),
                         expected.end());
          std::vector<uint32_t> got;
          ASSERT_EQ(index.Route(u, got), expected.size());
          std::sort(got.begin(), got.end());
          ASSERT_EQ(got, expected);
          ASSERT_EQ(index.MayMatch(u), !expected.empty() || [&] {
            for (const auto& [p, target] : live)
              if (p.label == l) return true;
            return false;
          }());
        }
      }
    }
  };

  for (int wave = 0; wave < 12; ++wave) {
    // Add a wave of distinct (pattern, target) pairs...
    for (int i = 0; i < 10; ++i) {
      const GenericEdgePattern p = random_pattern();
      const uint32_t target = next_target++;
      index.Add(p, target);
      live.emplace_back(p, target);
    }
    // ...remove a few random survivors...
    std::shuffle(live.begin(), live.end(), rng);
    for (int i = 0; i < 4 && !live.empty(); ++i) {
      ASSERT_TRUE(index.Remove(live.back().first, live.back().second));
      live.pop_back();
    }
    // ...and occasionally run the deferred compaction.
    if (wave % 3 == 2) index.Compact();
    check_all();
  }
  // Removing a pair twice (or an unknown pair) reports absence.
  const GenericEdgePattern p = live.front().first;
  const uint32_t target = live.front().second;
  ASSERT_TRUE(index.Remove(p, target));
  EXPECT_FALSE(index.Remove(p, target));

  // Drain everything: the index must report empty (no leaked postings).
  live.erase(live.begin());
  for (const auto& [lp, lt] : live) ASSERT_TRUE(index.Remove(lp, lt));
  index.Compact();
  EXPECT_TRUE(index.Empty());
  for (VertexId s = 0; s < 10; ++s)
    EXPECT_FALSE(index.MayMatch({s, 3, s, UpdateOp::kAdd}));
}

TEST(RouteIndexUnit, PrefilterTracksEndpointClassesExactly) {
  RoutePrefilter pf;
  const GenericEdgePattern literal_src{4, 2, kNoVertex};  // class L? = 1
  const GenericEdgePattern both_var{kNoVertex, 2, kNoVertex};  // class ?? = 0
  pf.Add(literal_src);
  pf.Add(literal_src);  // refcounted: two distinct users of the same shape
  pf.Add(both_var);
  EXPECT_TRUE(pf.MayMatch({4, 2, 9, UpdateOp::kAdd}));
  EXPECT_FALSE(pf.MayMatch({4, 3, 9, UpdateOp::kAdd}));
  EXPECT_EQ(pf.ClassMask(2), (1u << 1) | (1u << 0));
  EXPECT_EQ(pf.ClassMask(3), 0u);

  pf.Remove(literal_src);
  EXPECT_EQ(pf.ClassMask(2), (1u << 1) | (1u << 0));  // one ref left
  pf.Remove(literal_src);
  EXPECT_EQ(pf.ClassMask(2), 1u << 0);
  pf.Remove(both_var);
  EXPECT_EQ(pf.ClassMask(2), 0u);
  EXPECT_FALSE(pf.MayMatch({4, 2, 9, UpdateOp::kAdd}));
  pf.Compact();
  EXPECT_TRUE(pf.Empty());
}

// ------------------------------------------------------- engine-level oracle

/// Feeds `updates[pos..pos+n)` to the oracle one at a time and asserts the
/// engine's window results `got` equal its per-update results.
void ExpectWindowMatchesOracle(const std::vector<UpdateResult>& got,
                               ContinuousEngine& oracle, const EdgeUpdate* updates,
                               size_t pos, size_t n, const std::string& label) {
  ASSERT_EQ(got.size(), n) << label;
  for (size_t k = 0; k < n; ++k) {
    const UpdateResult expected = oracle.ApplyUpdate(updates[pos + k]);
    ASSERT_EQ(got[k].per_query, expected.per_query) << label << " at " << pos + k;
    ASSERT_EQ(got[k].triggered, expected.triggered) << label << " at " << pos + k;
  }
}

/// Streams `updates` in windows of `window` through a view engine and the
/// naive oracle, applying the scripted query adds/removes between windows.
/// The two must agree exactly, per update.
void ExpectRoutedAgrees(EngineKind kind, const std::vector<QueryPattern>& base,
                        const std::vector<QueryPattern>& pool,
                        const std::vector<EdgeUpdate>& updates, size_t window,
                        uint32_t add_period, uint32_t remove_period,
                        const std::string& label) {
  auto routed = CreateEngine(kind);
  auto oracle = CreateEngine(EngineKind::kNaive);
  for (QueryId qid = 0; qid < base.size(); ++qid) {
    routed->AddQuery(qid, base[qid]);
    oracle->AddQuery(qid, base[qid]);
  }

  QueryId next_qid = static_cast<QueryId>(base.size());
  std::vector<QueryId> live;
  for (QueryId qid = 0; qid < base.size(); ++qid) live.push_back(qid);
  size_t next_pool = 0;
  std::mt19937 rng(77);

  size_t pos = 0;
  size_t wave = 0;
  while (pos < updates.size()) {
    if (add_period != 0 && wave % add_period == add_period - 1 &&
        next_pool < pool.size()) {
      const QueryId qid = next_qid++;
      routed->AddQuery(qid, pool[next_pool]);
      oracle->AddQuery(qid, pool[next_pool]);
      ++next_pool;
      live.push_back(qid);
    }
    if (remove_period != 0 && wave % remove_period == remove_period - 1 &&
        !live.empty()) {
      const size_t victim =
          std::uniform_int_distribution<size_t>(0, live.size() - 1)(rng);
      const QueryId qid = live[victim];
      live.erase(live.begin() + victim);
      ASSERT_TRUE(routed->RemoveQuery(qid)) << label;
      ASSERT_TRUE(oracle->RemoveQuery(qid)) << label;
    }
    ++wave;

    const size_t n = std::min(window, updates.size() - pos);
    ExpectWindowMatchesOracle(routed->ApplyBatch(&updates[pos], n), *oracle,
                              updates.data(), pos, n,
                              label + ": " + routed->name());
    if (::testing::Test::HasFatalFailure()) return;
    pos += n;
  }
}

TEST(RoutedDispatch, AgreesWithOracleUnderChurn) {
  workload::SnbConfig cfg;
  cfg.num_updates = 400;
  cfg.seed = 19;
  cfg.num_places = 10;
  cfg.num_tags = 10;
  workload::Workload w = workload::GenerateSnb(cfg);

  workload::QueryGenConfig qc;
  qc.num_queries = 36;
  qc.avg_size = 3.0;
  qc.overlap = 0.5;
  qc.seed = 5;
  workload::QuerySet qs = workload::GenerateQueries(w, qc);
  std::vector<QueryPattern> base(qs.queries.begin(), qs.queries.begin() + 24);
  std::vector<QueryPattern> pool(qs.queries.begin() + 24, qs.queries.end());

  for (EngineKind kind : kViewKinds) {
    SCOPED_TRACE(EngineKindName(kind));
    ExpectRoutedAgrees(kind, base, pool, w.stream.updates(), /*window=*/16,
                       /*add_period=*/2, /*remove_period=*/3, "snb churn");
    // Windows of one take the single-insert path (TRIC's per-update insert,
    // the other engines' one-position window).
    ExpectRoutedAgrees(kind, base, pool, w.stream.updates(), /*window=*/1,
                       /*add_period=*/5, /*remove_period=*/7, "snb window=1");
  }
}

TEST(RoutedDispatch, CandidateCountCollapsesUnderTenantDuplication) {
  StringInterner in;
  const std::vector<QueryPattern> distinct = {
      Parse("(?a)-[knows]->(?b); (?b)-[knows]->(?c)", in),
      Parse("(?x)-[likes]->(?y)", in),
  };
  LabelId knows = in.Intern("knows");
  LabelId likes = in.Intern("likes");
  auto v = [&](int i) { return in.Intern("v" + std::to_string(i)); };
  std::vector<EdgeUpdate> updates;
  for (int i = 0; i < 12; ++i)
    updates.push_back({v(i), knows, v(i + 1), UpdateOp::kAdd});
  for (int i = 0; i < 6; ++i)
    updates.push_back({v(i), likes, v(i + 9), UpdateOp::kAdd});

  constexpr size_t kTenants = 8;
  for (EngineKind kind : kViewKinds) {
    SCOPED_TRACE(EngineKindName(kind));
    auto one = CreateEngine(kind);
    auto many = CreateEngine(kind);
    auto oracle = CreateEngine(EngineKind::kNaive);
    QueryId qid = 0;
    for (const QueryPattern& q : distinct) one->AddQuery(qid++, q);
    qid = 0;
    for (size_t t = 0; t < kTenants; ++t) {
      for (const QueryPattern& q : distinct) {
        many->AddQuery(qid, q);
        oracle->AddQuery(qid, q);
        ++qid;
      }
    }
    ExpectWindowMatchesOracle(many->ApplyBatch(updates.data(), updates.size()),
                              *oracle, updates.data(), 0, updates.size(),
                              many->name());
    one->ApplyBatch(updates.data(), updates.size());

    // Routing dispatches shared targets (groups / trie nodes): duplicating
    // every query 8x must not change the routed candidate count.
    EXPECT_GT(one->routed_candidates(), 0u) << one->name();
    EXPECT_EQ(many->routed_candidates(), one->routed_candidates())
        << many->name();
  }
}

TEST(RoutedDispatch, PrefilterRejectsUnregisteredLabels) {
  StringInterner in;
  const QueryPattern q = Parse("(?a)-[knows]->(?b)", in);
  LabelId knows = in.Intern("knows");
  LabelId likes = in.Intern("likes");  // never registered by any query
  auto v = [&](int i) { return in.Intern("v" + std::to_string(i)); };
  std::vector<EdgeUpdate> updates;
  for (int i = 0; i < 8; ++i) {
    updates.push_back({v(i), knows, v(i + 1), UpdateOp::kAdd});
    updates.push_back({v(i), likes, v(i + 1), UpdateOp::kAdd});
  }

  for (EngineKind kind : kViewKinds) {
    SCOPED_TRACE(EngineKindName(kind));
    for (size_t window : {size_t{1}, size_t{6}}) {
      auto routed = CreateEngine(kind);
      auto oracle = CreateEngine(EngineKind::kNaive);
      routed->AddQuery(0, q);
      oracle->AddQuery(0, q);
      size_t pos = 0;
      while (pos < updates.size()) {
        const size_t n = std::min(window, updates.size() - pos);
        ExpectWindowMatchesOracle(routed->ApplyBatch(&updates[pos], n), *oracle,
                                  updates.data(), pos, n,
                                  routed->name() + " window=" + std::to_string(window));
        pos += n;
      }
      // Half the stream carries a label no query mentions: the routed engine
      // rejects those updates in O(1).
      EXPECT_EQ(routed->prefilter_rejects(), updates.size() / 2)
          << routed->name() << " window=" << window;
      // Each of the 8 knows inserts routes to the query's one target. TRIC's
      // window finalize counts an affected terminal once per window instead:
      // the 16 updates form 3 windows of <= 6, each holding knows inserts.
      const bool tric = kind == EngineKind::kTric || kind == EngineKind::kTricPlus;
      const uint64_t expected = tric && window > 1 ? 3u : updates.size() / 2;
      EXPECT_EQ(routed->routed_candidates(), expected)
          << routed->name() << " window=" << window;
    }
  }
}

}  // namespace
}  // namespace gstream

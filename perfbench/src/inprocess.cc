// snb-qdb2500, snb-churn and taxi-window: the benchmark drives the engine's
// public entry points (AddQuery, RemoveQuery, ApplyUpdate) and the temporal
// layer's WindowManager::Advance directly, one caller, closed loop.

#include <algorithm>
#include <memory>
#include <numeric>

#include "engine/engine.h"
#include "time/window.h"
#include "tric/tric_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gstream::ContinuousEngine;
using gstream::EdgeUpdate;
using gstream::EngineKind;
using gstream::UpdateResult;

/// What one replay of an Inputs produced. Timings are filled only when the
/// replay is timed; spans only when a tracer is attached.
struct ReplayLog {
  std::unique_ptr<ContinuousEngine> engine;
  std::vector<uint64_t> hashes;  ///< NotificationHash per record.
  std::vector<char> fired;       ///< Indexed by query id.
  uint64_t notifications = 0;
  uint64_t new_embeddings = 0;
  uint64_t engine_updates = 0;  ///< Records plus expiry deletes.
  uint64_t adds = 0;
  uint64_t removes = 0;
  int64_t create_ns = 0;  ///< Engine construction.
  int64_t setup_ns = 0;
  int64_t stream_ns = 0;

  // Always, when timed. step_us covers a record's churn operations and the
  // record; record_us only the record (its notification latency).
  std::vector<double> step_us, record_us, add_us, remove_us;
  std::vector<double> insert_us, delete_us, advance_us;  // traced only
  int64_t engine_ns = 0;   ///< Traced: time inside engine calls.
  int64_t advance_ns = 0;  ///< Traced: time inside WindowManager::Advance.

  uint64_t ingested = 0, live = 0, expired = 0, removed = 0;
};

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Builds a `kind` engine, registers the initial queries, and replays the
/// stream with the workload's churn schedule and window.
void Replay(EngineKind kind, const Inputs& in, bool timed, Tracer* tr,
            ReplayLog& log) {
  const size_t n = in.records.size();
  log.hashes.assign(n, 0);
  uint32_t max_qid = 0;
  for (uint32_t q : in.qids) max_qid = std::max(max_qid, q);
  log.fired.assign(max_qid + 1, 0);
  if (timed) {
    log.step_us.reserve(n);
    log.record_us.reserve(n);
    log.add_us.reserve(in.queries.size());
  }

  const int64_t t_setup = NowNs();
  log.engine = gstream::CreateEngine(kind);
  log.create_ns = NowNs() - t_setup;
  ContinuousEngine& engine = *log.engine;

  const auto add = [&](size_t i) {
    const int64_t t0 = timed ? NowNs() : 0;
    if (tr != nullptr) tr->Begin("query.add");
    engine.AddQuery(in.qids[i], in.queries[i]);
    if (tr != nullptr) log.engine_ns += tr->End();
    if (timed) log.add_us.push_back(Us(NowNs() - t0));
    ++log.adds;
  };
  const auto remove = [&](size_t i) {
    const int64_t t0 = timed ? NowNs() : 0;
    if (tr != nullptr) tr->Begin("query.remove");
    engine.RemoveQuery(in.qids[i]);
    if (tr != nullptr) log.engine_ns += tr->End();
    if (timed) log.remove_us.push_back(Us(NowNs() - t0));
    ++log.removes;
  };
  const auto apply = [&](const EdgeUpdate& u, const char* span,
                         std::vector<double>& lat) {
    if (tr == nullptr) {
      UpdateResult r = engine.ApplyUpdate(u);
      ++log.engine_updates;
      return r;
    }
    tr->Begin(span);
    UpdateResult r = engine.ApplyUpdate(u);
    const int64_t d = tr->End();
    log.engine_ns += d;
    lat.push_back(Us(d));
    ++log.engine_updates;
    return r;
  };

  for (size_t i = 0; i < in.initial_queries; ++i) add(i);
  const int64_t t_stream = NowNs();
  log.setup_ns = t_stream - t_setup;

  gstream::temporal::WindowManager window(in.window);
  std::vector<EdgeUpdate> expiries;
  size_t next_add = in.initial_queries;
  size_t oldest = 0;
  for (size_t r = 0; r < n; ++r) {
    const int64_t t_step = timed ? NowNs() : 0;
    if (in.churn_every != 0 && r > 0 && r % in.churn_every == 0 &&
        next_add < in.queries.size()) {
      remove(oldest++);
      add(next_add++);
    }
    const EdgeUpdate& u = in.records[r];
    const int64_t t0 = timed ? NowNs() : 0;
    if (tr != nullptr) tr->Begin("record");
    if (in.window.enabled()) {
      expiries.clear();
      if (tr != nullptr) tr->Begin("time.advance");
      window.Advance(u, expiries);
      if (tr != nullptr) {
        const int64_t d = tr->End();
        log.advance_ns += d;
        log.advance_us.push_back(Us(d));
      }
      for (const EdgeUpdate& d : expiries) apply(d, "engine.delete", log.delete_us);
    }
    const UpdateResult res = apply(u, "engine.insert", log.insert_us);
    if (tr != nullptr) tr->End();
    if (timed) {
      const int64_t t1 = NowNs();
      log.record_us.push_back(Us(t1 - t0));
      log.step_us.push_back(Us(t1 - t_step));
    }

    if (!res.per_query.empty()) {
      log.hashes[r] = NotificationHash(r, res.per_query);
      ++log.notifications;
      log.new_embeddings += res.new_embeddings;
      for (uint32_t q : res.triggered) log.fired[q] = 1;
    }
  }
  log.stream_ns = NowNs() - t_stream;
  log.ingested = window.ingested_edges();
  log.live = window.live_edges();
  log.expired = window.expired_edges();
  log.removed = window.removed_edges();
}

double PerUnit(double count, double per) { return per == 0.0 ? 0.0 : count / per; }

double TrieNodesPerQuery(const ContinuousEngine& engine) {
  const auto* tric = dynamic_cast<const gstream::tric::TricEngine*>(&engine);
  if (tric == nullptr || engine.NumQueries() == 0) return 0.0;
  return static_cast<double>(tric->forest().NumNodes()) /
         static_cast<double>(engine.NumQueries());
}

}  // namespace

uint64_t CombineDigest(const std::vector<uint64_t>& per_record) {
  uint64_t h = kFnvBasis;
  for (uint64_t v : per_record) h = Fnv(h, v);
  return h;
}

Reference ComputeReference(const Inputs& in) {
  ReplayLog log;
  Replay(EngineKind::kGraphDb, in, /*timed=*/false, nullptr, log);
  Reference ref;
  ref.per_record = std::move(log.hashes);
  ref.notifications = log.notifications;
  ref.new_embeddings = log.new_embeddings;
  ref.seconds = static_cast<double>(log.stream_ns) / 1e9;
  // Planted queries are generated from real subgraph instances of the whole
  // stream, so each fires when it stays registered for the whole insert-only
  // stream. Under snb-churn a query lives for a slice of the stream, and
  // under taxi-window an instance can span more than the window; there the
  // run must fire the planted queries the reference fires (the digest
  // checks the rest).
  for (size_t i = 0; i < in.queries.size(); ++i) {
    if (!in.planted[i]) continue;
    const uint32_t q = in.qids[i];
    if (log.fired[q]) {
      ref.must_fire.push_back(q);
    } else if (in.churn_every == 0 && !in.window.enabled()) {
      ++ref.silent_planted;
    }
  }
  return ref;
}

uint64_t CheckNotifications(const CycleSetup& setup, std::vector<uint64_t>& hashes,
                        const std::vector<char>& fired, Ledger& ledger) {
  const std::vector<uint64_t>& want = setup.ref->per_record;
  if (setup.inject_drop) {
    // The self-test: pretend the first notification never happened.
    for (uint64_t& h : hashes) {
      if (h != 0) {
        h = 0;
        break;
      }
    }
  }
  uint64_t mismatched = 0, missing = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    if (hashes[i] == want[i]) continue;
    if (hashes[i] == 0) {
      ++missing;
    } else {
      ++mismatched;
    }
  }
  ledger.Fail("notification mismatch", mismatched);
  ledger.Fail("notification missing", missing);
  uint64_t silent = 0;
  for (uint32_t q : setup.ref->must_fire)
    if (q >= fired.size() || !fired[q]) ++silent;
  ledger.Fail("planted query never fired", silent);
  return missing;
}

void RunInProcessCycle(const CycleSetup& setup, Cycles& cy, Ledger& ledger) {
  const Inputs& in = *setup.in;
  Tracer* tr = setup.tracer;
  ReplayLog log;
  Replay(EngineKind::kTricPlus, in, /*timed=*/true, tr, log);
  const ContinuousEngine& engine = *log.engine;
  const size_t n = in.records.size();
  const double dn = static_cast<double>(n);

  ledger.attempted += n + log.adds + log.removes;
  CheckNotifications(setup, log.hashes, log.fired, ledger);
  if (in.window.enabled() &&
      log.ingested != log.live + log.expired + log.removed) {
    ledger.Fail("window accounting: ingested != live + expired + removed");
  }

  const double stream_s = static_cast<double>(log.stream_ns) / 1e9;
  const double cycle_ns = static_cast<double>(log.setup_ns + log.stream_ns);
  const size_t nadd = log.add_us.size();
  // Per-cycle values, for the cycle spread; the reported figures are
  // best-of-cycles (ReportInProcessBestOf).
  cy.Add("records_per_s", "1/s", Fold::kMedian, dn / stream_s, n);
  cy.Add("notify_p50_ms", "ms", Fold::kMedian, Quantile(log.record_us, 0.5) / 1e3, n);
  cy.Add("notify_p99_ms", "ms", Fold::kMedian, Quantile(log.record_us, 0.99) / 1e3, n);
  cy.Add("add_query_p50_ms", "ms", Fold::kMedian, Quantile(log.add_us, 0.5) / 1e3, nadd);
  cy.Add("add_query_p95_ms", "ms", Fold::kMedian, Quantile(log.add_us, 0.95) / 1e3, nadd);
  cy.Add("setup_s", "s", Fold::kMedian, static_cast<double>(log.setup_ns) / 1e9, in.initial_queries);
  cy.Add("engine_mb", "MB", Fold::kExact, static_cast<double>(engine.MemoryBytes()) / 1e6);
  cy.KeepBest("step_us", log.step_us);
  cy.KeepBest("record_us", log.record_us);
  cy.KeepBest("add_us", log.add_us);
  std::vector<double> setup_us{Us(log.create_ns)};
  setup_us.insert(setup_us.end(), log.add_us.begin(),
                  log.add_us.begin() + static_cast<std::ptrdiff_t>(in.initial_queries));
  cy.KeepBest("setup_us", setup_us);

  // Deterministic work counters: identical in every cycle, checked.
  const double updates = static_cast<double>(log.engine_updates);
  const double passes = static_cast<double>(engine.final_join_passes());
  cy.Add("notifications", "count", Fold::kExact, static_cast<double>(log.notifications));
  cy.Add("new_embeddings", "count", Fold::kExact, static_cast<double>(log.new_embeddings));
  cy.Add("query.candidates_per_update", "count", Fold::kExact,
         PerUnit(static_cast<double>(engine.routed_candidates()), dn));
  cy.Add("query.prefilter_reject_frac", "ratio", Fold::kExact,
         PerUnit(static_cast<double>(engine.prefilter_rejects()), updates));
  cy.Add("matview.final_join_passes_per_update", "count", Fold::kExact, passes / dn);
  cy.Add("matview.shared_finalize_frac", "ratio", Fold::kExact,
         PerUnit(static_cast<double>(engine.shared_finalize_groups()), passes));
  cy.Add("tric.trie_nodes_per_query", "count", Fold::kExact, TrieNodesPerQuery(engine));
  cy.Add("time.expired_per_record", "count", Fold::kExact,
         static_cast<double>(log.expired) / dn);

  if (tr == nullptr) return;
  cy.Add("engine.insert_p50_us", "us", Fold::kDuration, Quantile(log.insert_us, 0.5), n);
  cy.Add("engine.insert_p99_us", "us", Fold::kDuration, Quantile(log.insert_us, 0.99), n);
  if (!log.delete_us.empty()) {
    const size_t nd = log.delete_us.size();
    cy.Add("engine.delete_p50_us", "us", Fold::kDuration, Quantile(log.delete_us, 0.5), nd);
    cy.Add("engine.delete_p99_us", "us", Fold::kDuration, Quantile(log.delete_us, 0.99), nd);
  }
  cy.Add("engine.apply_busy_frac", "ratio", Fold::kMedian,
         static_cast<double>(log.engine_ns) / cycle_ns);
  cy.Add("query.add_p50_us", "us", Fold::kDuration, Quantile(log.add_us, 0.5), nadd);
  cy.Add("query.add_p99_us", "us", Fold::kDuration, Quantile(log.add_us, 0.99), nadd);
  if (!log.remove_us.empty()) {
    cy.Add("query.remove_p50_us", "us", Fold::kDuration, Quantile(log.remove_us, 0.5),
           log.remove_us.size());
  }
  if (!log.advance_us.empty()) {
    cy.Add("time.advance_p50_us", "us", Fold::kDuration, Quantile(log.advance_us, 0.5), n);
    cy.Add("time.advance_busy_frac", "ratio", Fold::kMedian,
           static_cast<double>(log.advance_ns) / cycle_ns);
  }
  cy.Add("bench.self_frac", "ratio", Fold::kMedian,
         1.0 - static_cast<double>(log.engine_ns + log.advance_ns) / cycle_ns);
}

void ReportInProcessBestOf(const Inputs& in, double clock, Cycles& cy) {
  if (!cy.Has("records_per_s")) return;
  const auto sum = [&](const char* items) {
    const std::vector<double>& v = cy.Best(items);
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  const std::vector<double>& record_us = cy.Best("record_us");
  const std::vector<double>& add_us = cy.Best("add_us");
  const auto duration = [&](const char* name, double raw) {
    cy.SetBestOf(name, raw * clock, raw);
  };
  const double rate = static_cast<double>(in.records.size()) / (sum("step_us") / 1e6);
  cy.SetBestOf("records_per_s", rate / clock, rate);
  duration("notify_p50_ms", Quantile(record_us, 0.5) / 1e3);
  duration("notify_p99_ms", Quantile(record_us, 0.99) / 1e3);
  duration("add_query_p50_ms", Quantile(add_us, 0.5) / 1e3);
  duration("add_query_p95_ms", Quantile(add_us, 0.95) / 1e3);
  duration("setup_s", sum("setup_us") / 1e6);
}

Mirror RunMirror(const Inputs& in) {
  constexpr size_t kWindow = 32;  // ServerOptions::batch_window default
  auto engine = gstream::CreateEngine(EngineKind::kTricPlus);
  for (size_t i = 0; i < in.queries.size(); ++i) engine->AddQuery(in.qids[i], in.queries[i]);
  const size_t n = in.records.size();
  for (size_t at = 0; at < n; at += kWindow)
    engine->ApplyBatch(in.records.data() + at, std::min(kWindow, n - at));
  Mirror m;
  const double dn = static_cast<double>(n);
  const double passes = static_cast<double>(engine->final_join_passes());
  m.candidates_per_update = static_cast<double>(engine->routed_candidates()) / dn;
  m.prefilter_reject_frac = static_cast<double>(engine->prefilter_rejects()) / dn;
  m.passes_per_update = passes / dn;
  m.shared_finalize_frac = PerUnit(static_cast<double>(engine->shared_finalize_groups()), passes);
  m.trie_nodes_per_query = TrieNodesPerQuery(*engine);
  return m;
}

}  // namespace perfbench

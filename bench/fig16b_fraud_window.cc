// Rolling-window fraud bench (beyond the paper's figures): layered
// money-mule chains (wire -> wire -> cashout) hidden in a background
// payment stream, matched under per-label TTLs — cashout edges age out
// faster than wires, the rolling-window regime fraud teams actually run.
// Short-lived "investigation" queries register mid-stream with a TTL and
// are auto-removed by the watermark (src/time, DESIGN.md §13), exercising
// the `expired_queries` path end to end. The temporal accounting
// (`ingested == live + expired + removed`) is checked, not just printed.

#include <cstdlib>
#include <random>

#include "bench/harness.h"
#include "query/parser.h"
#include "time/windowed_stream.h"

using namespace gstream;
using namespace gstream::bench;

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::FromArgs(argc, argv);
  PrintHeader("fig16b-fraud-window",
              "money-mule chains under rolling per-label TTLs + TTL'd queries",
              opts);

  const size_t total_updates = opts.Pick(10'000, 300'000);
  const size_t num_accounts = opts.Pick(400, 4'000);
  const size_t kTxnsPerTick = 4;       // Event-time rate.
  const uint64_t kWireTtl = 600;       // Rolling window per label.
  const uint64_t kCashoutTtl = 300;
  const uint64_t kQueryTtl = 500;      // Investigation-query lifetime.
  const size_t kInvestigationEvery = total_updates / 8;

  StringInterner in;
  const LabelId wire = in.Intern("wire");
  const LabelId cashout = in.Intern("cashout");
  std::vector<VertexId> accounts;
  for (size_t i = 0; i < num_accounts; ++i)
    accounts.push_back(in.Intern("acct" + std::to_string(i)));

  // The registered pattern set: the full mule chain, its two-hop prefix and
  // suffix, and the plain hops — duplicated per "team" so signature groups
  // form (shared finalize collapses the fan-out exactly as in fig12e).
  auto parse = [&](const char* text) {
    ParseResult r = ParsePattern(text, in);
    if (!r.ok) {
      std::fprintf(stderr, "FATAL: bad pattern %s: %s\n", text, r.error.c_str());
      std::exit(1);
    }
    return r.pattern;
  };
  const std::vector<QueryPattern> shapes = {
      parse("(?a)-[wire]->(?b); (?b)-[wire]->(?c); (?c)-[cashout]->(?d)"),
      parse("(?a)-[wire]->(?b); (?b)-[wire]->(?c)"),
      parse("(?a)-[wire]->(?b); (?b)-[cashout]->(?c)"),
      parse("(?a)-[cashout]->(?b)"),
  };
  const size_t teams = opts.Pick(6, 30);

  // Background payments with injected mule chains: every ~50 transactions a
  // fresh 4-account chain fires within one tick, so the chain is alive
  // inside every label's window when the cashout lands.
  std::mt19937_64 rng(opts.seed);
  std::uniform_int_distribution<size_t> acct(0, accounts.size() - 1);
  std::vector<StreamEvent> events;
  events.reserve(total_updates + 64);
  size_t emitted = 0;
  while (emitted < total_updates) {
    const uint64_t ts = emitted / kTxnsPerTick;
    if (emitted % 50 == 47 && emitted + 3 <= total_updates) {
      const VertexId m1 = accounts[acct(rng)], m2 = accounts[acct(rng)],
                     m3 = accounts[acct(rng)], m4 = accounts[acct(rng)];
      for (EdgeUpdate u : {EdgeUpdate{m1, wire, m2, UpdateOp::kAdd},
                           EdgeUpdate{m2, wire, m3, UpdateOp::kAdd},
                           EdgeUpdate{m3, cashout, m4, UpdateOp::kAdd}}) {
        u.ts = ts;
        events.push_back(StreamEvent::Update(u));
        ++emitted;
      }
      continue;
    }
    EdgeUpdate u{accounts[acct(rng)], rng() % 8 == 0 ? cashout : wire,
                 accounts[acct(rng)], UpdateOp::kAdd};
    u.ts = ts;
    events.push_back(StreamEvent::Update(u));
    ++emitted;
  }

  // TTL'd investigation queries: the full chain pattern, registered at eight
  // stream positions, each auto-expiring kQueryTtl ticks later.
  const QueryId first_ttl_qid = static_cast<QueryId>(shapes.size() * teams);
  size_t investigations = 0;
  for (size_t pos = kInvestigationEvery; pos < events.size();
       pos += kInvestigationEvery) {
    events.insert(events.begin() + pos,
                  StreamEvent::Add(first_ttl_qid + investigations, shapes[0],
                                   kQueryTtl));
    ++investigations;
  }

  temporal::WindowConfig window;
  window.policy = temporal::WindowPolicy::kLabelTtl;
  window.width = kWireTtl;  // Default TTL (wire).
  window.label_ttls.push_back({cashout, kCashoutTtl});

  std::printf(
      "accounts=%zu  |GE|=%zu  |QDB|=%zu+%zu ttl'd  wire ttl=%llu  cashout "
      "ttl=%llu\n\n",
      num_accounts, events.size(), shapes.size() * teams, investigations,
      static_cast<unsigned long long>(kWireTtl),
      static_cast<unsigned long long>(kCashoutTtl));

  TextTable table({"engine", "answer ms/upd", "upd/s", "expired", "live end",
                   "q expired", "matches"});
  for (EngineKind kind : PaperEngineKinds()) {
    std::printf("  running %-8s ...", EngineKindName(kind));
    std::fflush(stdout);

    auto engine = CreateEngine(kind);
    std::vector<QueryPattern> base;
    for (size_t t = 0; t < teams; ++t)
      for (const QueryPattern& q : shapes) base.push_back(q);
    IndexStats index = IndexQueries(*engine, base);

    RunConfig config;
    config.budget_seconds = opts.budget_seconds;
    config.batch_window = opts.batch;
    config.batch_threads = opts.threads;
    const temporal::WindowedRunStats s =
        temporal::RunWindowedStream(*engine, events, window, config);

    if (s.ingested_edges !=
        s.live_edges + s.expired_edges + s.removed_edges) {
      std::fprintf(stderr,
                   "FATAL %s: ingested=%llu != live=%llu + expired=%llu + "
                   "removed=%llu\n",
                   EngineKindName(kind),
                   static_cast<unsigned long long>(s.ingested_edges),
                   static_cast<unsigned long long>(s.live_edges),
                   static_cast<unsigned long long>(s.expired_edges),
                   static_cast<unsigned long long>(s.removed_edges));
      return 1;
    }

    const double upd_per_sec = s.mixed.answer_millis <= 0.0
                                   ? 0.0
                                   : s.mixed.updates_applied * 1000.0 /
                                         s.mixed.answer_millis;
    std::printf(
        " %zu ops (%llu expired, %llu queries aged out), %.0f upd/s%s\n",
        s.mixed.updates_applied,
        static_cast<unsigned long long>(s.expired_edges),
        static_cast<unsigned long long>(s.expired_queries), upd_per_sec,
        s.mixed.timed_out ? " *" : "");

    table.AddRow({EngineKindName(kind),
                  FormatMs(s.mixed.MsecPerUpdate(), s.mixed.timed_out),
                  TextTable::Num(upd_per_sec, 0),
                  std::to_string(s.expired_edges),
                  std::to_string(s.live_edges),
                  std::to_string(s.expired_queries),
                  std::to_string(s.mixed.new_embeddings)});

    BenchLine("fig16b_fraud_window")
        .Add("dataset", std::string("fraud"))
        .Add("engine", std::string(EngineKindName(kind)))
        .Add("window_policy", std::string("label-ttl"))
        .Add("window_width", kWireTtl)
        .Add("updates_per_sec", upd_per_sec)
        .Add("ms_per_update", s.mixed.MsecPerUpdate())
        .Add("index_ms_per_query", index.MsecPerQuery())
        .Add("updates_applied", static_cast<uint64_t>(s.mixed.updates_applied))
        .Add("ingested_edges", s.ingested_edges)
        .Add("expired_edges", s.expired_edges)
        .Add("expiry_batches", s.expiry_batches)
        .Add("live_edges", s.live_edges)
        .Add("removed_edges", s.removed_edges)
        .Add("expired_queries", s.expired_queries)
        .Add("new_embeddings", s.mixed.new_embeddings)
        .Add("partial", static_cast<uint64_t>(s.mixed.timed_out ? 1 : 0))
        .Add("memory_bytes", static_cast<uint64_t>(s.mixed.memory_bytes))
        .Emit();
  }
  std::printf("\n");
  PrintTable(table, opts);
  return 0;
}

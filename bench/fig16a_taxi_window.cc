// Sliding-window bench (beyond the paper's figures): the taxi stream under
// a 1-hour event-time window — the geofencing deployment the temporal
// subsystem (src/time, DESIGN.md §13) targets. Every trip edge carries a
// synthetic event timestamp; the windowed runner splices the deletions the
// advancing watermark makes due into the same batch windows, so engines pay
// real retraction work in steady state instead of growing without bound.
// Reported per engine: throughput with the window on, plus the temporal
// accounting (`ingested == live + expired` is checked, not just printed).

#include <cstdlib>

#include "bench/harness.h"
#include "time/windowed_stream.h"

using namespace gstream;
using namespace gstream::bench;

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::FromArgs(argc, argv);
  PrintHeader("fig16a-taxi-window",
              "1-hour sliding window over the taxi stream (event time)", opts);

  const size_t total_updates = opts.Pick(12'000, 400'000);
  const size_t num_queries = opts.Pick(40, 200);
  // Event-time shape: ~2 trips per second ⇒ the quick stream spans ~100
  // minutes, so a 1-hour window expires a large fraction mid-run.
  const uint64_t kTripsPerSecond = 2;
  const uint64_t kWindowSeconds = 3600;

  workload::Workload w = MakeWorkload("taxi", total_updates, opts.seed);
  workload::QuerySet qs =
      workload::GenerateQueries(w, BaselineQueryConfig(opts, num_queries));

  std::vector<StreamEvent> events;
  events.reserve(w.stream.size());
  for (size_t i = 0; i < w.stream.size(); ++i) {
    EdgeUpdate u = w.stream[i];
    u.ts = i / kTripsPerSecond;
    events.push_back(StreamEvent::Update(u));
  }

  temporal::WindowConfig window;
  window.policy = temporal::WindowPolicy::kTime;
  window.width = kWindowSeconds;

  std::printf(
      "dataset=taxi  |GE|=%zu  |QDB|=%zu  window=%llus  stream span=%llus\n\n",
      total_updates, qs.queries.size(),
      static_cast<unsigned long long>(kWindowSeconds),
      static_cast<unsigned long long>(total_updates / kTripsPerSecond));

  TextTable table({"engine", "answer ms/upd", "upd/s", "expired", "batches",
                   "live end", "MB end"});
  for (EngineKind kind : PaperEngineKinds()) {
    std::printf("  running %-8s ...", EngineKindName(kind));
    std::fflush(stdout);

    auto engine = CreateEngine(kind);
    IndexStats index = IndexQueries(*engine, qs.queries);

    RunConfig config;
    config.budget_seconds = opts.budget_seconds;
    config.batch_window = opts.batch;
    config.batch_threads = opts.threads;
    const temporal::WindowedRunStats s =
        temporal::RunWindowedStream(*engine, events, window, config);

    // The accounting gate: every ingested edge is live, expired, or
    // explicitly removed — nothing leaks, nothing double-retires.
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
    std::printf(" %zu ops (%llu expired in %llu batches), %.0f upd/s%s\n",
                s.mixed.updates_applied,
                static_cast<unsigned long long>(s.expired_edges),
                static_cast<unsigned long long>(s.expiry_batches), upd_per_sec,
                s.mixed.timed_out ? " *" : "");

    table.AddRow({EngineKindName(kind),
                  FormatMs(s.mixed.MsecPerUpdate(), s.mixed.timed_out),
                  TextTable::Num(upd_per_sec, 0),
                  std::to_string(s.expired_edges),
                  std::to_string(s.expiry_batches),
                  std::to_string(s.live_edges),
                  TextTable::Num(static_cast<double>(s.mixed.memory_bytes) /
                                     (1024.0 * 1024.0),
                                 2)});

    BenchLine("fig16a_taxi_window")
        .Add("dataset", std::string("taxi"))
        .Add("engine", std::string(EngineKindName(kind)))
        .Add("window_policy", std::string("time"))
        .Add("window_width", kWindowSeconds)
        .Add("updates_per_sec", upd_per_sec)
        .Add("ms_per_update", s.mixed.MsecPerUpdate())
        .Add("index_ms_per_query", index.MsecPerQuery())
        .Add("updates_applied", static_cast<uint64_t>(s.mixed.updates_applied))
        .Add("ingested_edges", s.ingested_edges)
        .Add("expired_edges", s.expired_edges)
        .Add("expiry_batches", s.expiry_batches)
        .Add("live_edges", s.live_edges)
        .Add("removed_edges", s.removed_edges)
        .Add("watermark", s.watermark)
        .Add("partial", static_cast<uint64_t>(s.mixed.timed_out ? 1 : 0))
        .Add("memory_bytes", static_cast<uint64_t>(s.mixed.memory_bytes))
        .Emit();
  }
  std::printf("\n");
  PrintTable(table, opts);
  return 0;
}

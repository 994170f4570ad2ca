// TRIC+ end-to-end benchmark. One run = one workload, one seed:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH] [--inject-drop]
//
// The run generates its input from the seed, computes the reference
// notifications with the GraphDB engine, then repeats the workload in
// back-to-back cycles for S seconds. Each cycle builds a fresh engine (or
// Server) and replays the same input. The end-to-end timings are reported
// best-of-cycles: each item (record, registration, burst) keeps its fastest
// replay, and the metric is computed from those minima (README.md,
// "Measurement rule"). The last stdout line is the JSON result.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "inputs.h"
#include "measure.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
  bool inject_drop = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans PATH] [--inject-drop]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-drop") {
      a.inject_drop = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) Usage("bad --seed " + v);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 120.0)
        Usage("bad --seconds " + v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("bad --trace " + v);
      a.trace = v == "1";
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  bool known = false;
  for (const std::string& w : WorkloadNames()) known = known || w == a.workload;
  if (!known) Usage("unknown workload " + a.workload);
  return a;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (--trace 0) and per-layer metrics (--trace 1), in
// BENCHMARK.json order. A per-layer metric a workload does not exercise is
// reported as 0 and marked "n/a" in the readable report.
const std::vector<MetricDef> kEndToEnd = {
    {"records_per_s", "1/s"},  {"notify_p50_ms", "ms"},    {"notify_p99_ms", "ms"},
    {"add_query_p50_ms", "ms"}, {"add_query_p95_ms", "ms"}, {"setup_s", "s"},
    {"engine_mb", "MB"},
};
const std::vector<MetricDef> kPerLayer = {
    {"engine.insert_p50_us", "us"},
    {"engine.insert_p99_us", "us"},
    {"engine.delete_p50_us", "us"},
    {"engine.delete_p99_us", "us"},
    {"engine.apply_busy_frac", "ratio"},
    {"query.add_p50_us", "us"},
    {"query.add_p99_us", "us"},
    {"query.remove_p50_us", "us"},
    {"query.candidates_per_update", "count"},
    {"query.prefilter_reject_frac", "ratio"},
    {"matview.final_join_passes_per_update", "count"},
    {"matview.shared_finalize_frac", "ratio"},
    {"tric.trie_nodes_per_query", "count"},
    {"time.advance_p50_us", "us"},
    {"time.advance_busy_frac", "ratio"},
    {"time.expired_per_record", "count"},
    {"server.stream_edges_p50_us", "us"},
    {"server.apply_wait_ms", "ms"},
    {"server.records_per_window", "count"},
    {"server.gen_lag_max_ms", "ms"},
    {"server.notifications_missing", "count"},
    {"server.notifications_shed", "count"},
    {"graphdb.records_per_s", "1/s"},
    {"graphdb.speedup", "x"},
    {"workload.gen_s", "s"},
    {"bench.self_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"host.mem_probe_ms", "ms"},
    {"host.clock_factor", "ratio"},
};

const char* FoldName(Fold f) {
  switch (f) {
    case Fold::kDuration: return "p10 of";
    case Fold::kMedian: return "median of";
    case Fold::kExact: return "same in all";
  }
  return "";
}

void PrintSeries(const char* tag, const Cycles& cy) {
  for (const auto& [name, s] : cy.series()) {
    const char* fold = s.best_of ? "best-of" : FoldName(s.fold);
    std::printf("  %-38s %14.6g %-5s  %-11s %3zu cycles  %7zu samples/cycle  "
                "cycle spread %5.1f%%   [%s]\n",
                name.c_str(), cy.Value(name), s.unit.c_str(), fold,
                s.values.size(), s.samples_per_cycle, 100.0 * Spread(s.values), tag);
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Run(const Args& args) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  const int64_t t_gen = NowNs();
  const Inputs in = MakeInputs(args.workload, args.seed);
  const double gen_s = static_cast<double>(NowNs() - t_gen) / 1e9;
  std::printf("input: %zu records, %zu queries, %zu subscriptions, digest %016llx "
              "(generated in %.3f s)\n",
              in.records.size(), in.queries.size(), in.patterns.size(),
              static_cast<unsigned long long>(in.digest), gen_s);

  const Reference ref = ComputeReference(in);
  std::printf("reference (GraphDB, batch 1): %llu notifying records, %llu new "
              "embeddings, digest %016llx, %.3f s\n",
              static_cast<unsigned long long>(ref.notifications),
              static_cast<unsigned long long>(ref.new_embeddings),
              static_cast<unsigned long long>(CombineDigest(ref.per_record)), ref.seconds);
  if (ref.silent_planted != 0) {
    std::fprintf(stderr, "perfbench: the reference never fired %llu planted queries\n",
                 static_cast<unsigned long long>(ref.silent_planted));
    return 1;
  }
  const bool loopback = args.workload == "server-loopback";
  if (loopback && ref.notifications < 1000) {
    std::fprintf(stderr, "perfbench: server-loopback notifies only %llu records\n",
                 static_cast<unsigned long long>(ref.notifications));
    return 1;
  }
  Mirror mirror;
  if (loopback) mirror = RunMirror(in);

  const MemProbe probe;
  std::vector<double> probes;
  for (int i = 0; i < 3; ++i) probes.push_back(probe.RunMs());
  const double probe_before = Quantile(probes, 0.5);

  // Cycles: untraced only for --trace 0; alternating untraced/traced for
  // --trace 1, so both halves see the same host conditions.
  Cycles plain, traced;
  Ledger ledger;
  Tracer tracer;
  const auto cycle = loopback ? RunLoopbackCycle : RunInProcessCycle;
  CycleSetup setup;
  setup.in = &in;
  setup.ref = &ref;
  setup.inject_drop = args.inject_drop;
  constexpr size_t kMinCycles = 5;
  const int64_t t_end = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  size_t n_plain = 0, n_traced = 0;
  // The clock probe runs before every cycle; its fastest reading is the
  // run's clock speed.
  std::vector<double> clock_ms;
  while (n_plain < kMinCycles || (args.trace && n_traced < kMinCycles) || NowNs() < t_end) {
    clock_ms.push_back(ClockProbeMs());
    const bool traced_cycle = args.trace && n_traced < n_plain;
    setup.tracer = traced_cycle ? &tracer : nullptr;
    cycle(setup, traced_cycle ? traced : plain, ledger);
    ++(traced_cycle ? n_traced : n_plain);
  }

  const double clock_best = Quantile(clock_ms, 0.0);
  const double clock = kClockReferenceMs / clock_best;
  const auto report_best_of = loopback ? ReportLoopbackBestOf : ReportInProcessBestOf;
  report_best_of(in, clock, plain);
  report_best_of(in, clock, traced);

  for (int i = 0; i < 3; ++i) probes.push_back(probe.RunMs());
  const double probe_after = Quantile({probes.begin() + 3, probes.end()}, 0.5);

  for (const Cycles* cy : {&plain, &traced}) {
    for (const std::string& name : cy->UnstableCounts())
      ledger.Fail("count changed between cycles: " + name);
  }
  const bool correct = ledger.failed == 0;

  // Metrics measured outside the cycles; everything else is folded from the
  // cycles (traced cycles first for per-layer metrics).
  std::map<std::string, double> outside;
  const double rate = plain.Value("records_per_s");
  // GraphDB's one replay is timed as is, so the speedup compares it with
  // TRIC+'s rate before the clock scaling.
  const double graphdb_rate = static_cast<double>(in.records.size()) / ref.seconds;
  outside["graphdb.records_per_s"] = graphdb_rate;
  outside["graphdb.speedup"] = plain.series().at("records_per_s").best_raw / graphdb_rate;
  outside["workload.gen_s"] = gen_s;
  outside["host.mem_probe_ms"] = Quantile(probes, 0.5);
  outside["host.clock_factor"] = clock;
  if (args.trace) outside["trace.overhead_frac"] = 1.0 - traced.Value("records_per_s") / rate;
  if (loopback) {
    outside["query.candidates_per_update"] = mirror.candidates_per_update;
    outside["query.prefilter_reject_frac"] = mirror.prefilter_reject_frac;
    outside["matview.final_join_passes_per_update"] = mirror.passes_per_update;
    outside["matview.shared_finalize_frac"] = mirror.shared_finalize_frac;
    outside["tric.trie_nodes_per_query"] = mirror.trie_nodes_per_query;
  }
  const auto value_of = [&](const char* name, bool* applies) -> double {
    *applies = true;
    if (auto it = outside.find(name); it != outside.end()) return it->second;
    if (args.trace && traced.Has(name)) return traced.Value(name);
    if (plain.Has(name)) return plain.Value(name);
    *applies = false;
    return 0.0;
  };

  std::printf("\n%zu cycles (%zu untraced, %zu traced), %llu attempted, %llu failed\n",
              n_plain + n_traced, n_plain, n_traced,
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed));
  for (const auto& [reason, count] : ledger.reasons)
    std::printf("  FAILED %llu x %s\n", static_cast<unsigned long long>(count), reason.c_str());
  PrintSeries("untraced", plain);
  PrintSeries("traced", traced);
  // Cycle by cycle, so a reader can see the host's fast and slow modes.
  for (const char* name : {"records_per_s", "setup_s"}) {
    if (!plain.Has(name)) continue;
    std::printf("%s by cycle:", name);
    for (double v : plain.series().at(name).values) std::printf(" %.4g", v);
    std::printf("\n");
  }
  std::printf("host.mem_probe_ms: %.3f before cycles, %.3f after\n", probe_before, probe_after);
  std::printf("clock probe: fastest %.4f ms, median %.4f ms over %zu readings; reference "
              "%.4f ms; best-of timings scaled by %.4f (rates divided):\n",
              clock_best, Quantile(clock_ms, 0.5), clock_ms.size(), kClockReferenceMs, clock);
  for (const auto& [name, s] : plain.series()) {
    if (s.best_of)
      std::printf("  %-20s %14.6g %-4s scaled  %14.6g raw\n", name.c_str(), s.best_value,
                  s.unit.c_str(), s.best_raw);
  }
  if (loopback) {
    std::printf("server-loopback: engine_mb is the heap the server and its two connections "
                "hold at the end of the stream; the engine counters come from an in-process "
                "TRIC+ mirror (windows of 32)\n");
  }
  if (args.trace) {
    std::printf("span self time (traced cycles):\n");
    for (const auto& [name, a] : tracer.aggregates()) {
      std::printf("  %-28s %9llu spans  total %10.3f ms  self %10.3f ms\n", name.c_str(),
                  static_cast<unsigned long long>(a.count),
                  static_cast<double>(a.total_ns) / 1e6, static_cast<double>(a.self_ns) / 1e6);
    }
    if (!args.spans.empty()) {
      if (!tracer.Write(args.spans)) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.spans.c_str());
        return 1;
      }
      std::printf("spans written to %s (%llu beyond the in-memory cap not kept)\n",
                  args.spans.c_str(), static_cast<unsigned long long>(tracer.dropped()));
    }
  }

  // The reported metrics; one that does not apply to this workload reads 0.
  std::printf("\nreported %s metrics:\n", args.trace ? "per-layer" : "end-to-end");
  std::vector<std::pair<const MetricDef*, double>> values;
  for (const MetricDef& m : args.trace ? kPerLayer : kEndToEnd) {
    bool applies = false;
    const double v = value_of(m.name, &applies);
    values.emplace_back(&m, v);
    if (applies) {
      std::printf("  %-38s %14.6g %s\n", m.name, v, m.unit);
    } else {
      std::printf("  %-38s %14s\n", m.name, "n/a (0)");
    }
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(ledger.attempted) +
                     ", \"failed\": " + std::to_string(ledger.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + std::string(values[i].first->name) + "\": {\"value\": " +
            JsonNumber(values[i].second) + ", \"unit\": \"" + values[i].first->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  // Keep freed heap memory mapped between cycles. Otherwise glibc returns
  // each dead engine's pages to the kernel and the next cycle faults them in
  // again, and page-fault cost swings with the host's memory pressure.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, -1);
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

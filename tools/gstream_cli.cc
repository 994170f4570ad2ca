// gstream_cli — run a continuous-query file against a generated or custom
// update stream and print notifications. The "try it on your own queries"
// entry point of the library.
//
// Usage:
//   gstream_cli --queries=FILE [--dataset=snb|taxi|bio] [--updates=N]
//               [--stream=FILE.csv] [--events=FILE.gse] [--gsb=FILE.gsb]
//               [--engine=tric+|tric|inv|inv+|inc|inc+|graphdb|naive]
//               [--seed=N] [--verbose]
//               [--batch=N] [--threads=N]
//
// File replay (--gsb, see DESIGN.md §10): streams a checksummed binary
// `.gsb` file (written by gstream_encode) through the fault-tolerant ingest
// pipeline instead of an in-memory stream. Pipeline flags:
//
//   --readers=N           decode threads (default 1)
//   --ring=N              ring capacity in batches (default 8)
//   --overload=block|shed|fail-fast   full-ring policy (default block)
//   --on-corrupt=skip|fail            corrupt-block policy (default skip)
//   --stall-us=N          sleep N us per applied window (overload testing)
//   --snapshot=FILE       snapshot path (with --snapshot-every / --recover)
//   --snapshot-every=N    write a snapshot every N finalized windows
//   --recover             resume from --snapshot instead of starting fresh
//   --window-policy=none|time|count|label-ttl   sliding-window expiry policy
//   --window-width=N      window width / count / default TTL (event-time
//                         units from the .gsb timestamp column; recovery must
//                         use the same window flags as the original run)
//
// Fault injection (deterministic, for the CI smoke leg and local testing;
// loads the file into memory and corrupts the image before replay):
//
//   --fault-seed=N          RNG seed (default 1)
//   --fault-flips=N         flip N random bytes after the header
//   --fault-flip-records=N  flip N random bytes in record payloads only
//                           (dictionary corruption is fatal by design)
//   --fault-truncate=N      drop the trailing N bytes
//   --fault-dup             duplicate a random block
//   --fault-swap            swap two adjacent blocks
//
// --batch=N feeds the engine windows of N updates through ApplyBatch (the
// sharded batch path; results are identical to per-update execution), and
// --threads=N fans footprint-independent shards across N threads.
//
// The query file holds one pattern per line (see query/parser.h for the
// grammar); blank lines and lines starting with '#' are skipped. Example:
//
//   # who checks in where a friend checked in?
//   (?a)-[knows]->(?b); (?a)-[checksIn]->(?p); (?b)-[checksIn]->(?p)
//   (?someone)-[posted]->(post_17)
//
// With --stream=FILE.csv the generated dataset is replaced by your own edge
// stream: one "src,label,dst" triple per line (a leading '-' on a line
// marks a deletion, e.g. "-alice,knows,bob"); '#' comments allowed.
//
// With --events=FILE the run becomes a *mixed* update/query-event stream
// (the dynamic query database): edge lines as in --stream, interleaved with
// query lifecycle events —
//
//   alice,knows,bob            # edge insertion
//   -alice,knows,bob           # edge deletion
//   +q 7 (?a)-[knows]->(?b)    # register continuous query 7 (id must be fresh)
//   -q 7                       # remove query 7 (id must be registered)
//
// Queries from --queries (ids 0..N-1) are registered up front; event-file
// ids must not collide with them. The run reports indexing, removal, and
// answering time separately. --events replaces --dataset/--stream and makes
// --queries optional.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/flags.h"
#include "common/timer.h"
#include "engine/driver.h"
#include "engine/engine.h"
#include "ingest/csv_stream.h"
#include "ingest/fault_injector.h"
#include "ingest/pipeline.h"
#include "query/parser.h"
#include "workload/bio.h"
#include "workload/snb.h"
#include "workload/taxi.h"

using namespace gstream;

namespace {

workload::Workload MakeDataset(const std::string& name, size_t updates,
                               uint64_t seed) {
  if (name == "taxi") {
    workload::TaxiConfig c;
    c.num_updates = updates;
    c.seed = seed;
    return workload::GenerateTaxi(c);
  }
  if (name == "bio") {
    workload::BioConfig c;
    c.num_updates = updates;
    c.seed = seed;
    return workload::GenerateBio(c);
  }
  workload::SnbConfig c;
  c.num_updates = updates;
  c.seed = seed;
  return workload::GenerateSnb(c);
}

using ingest::LoadCsvStream;
using ingest::ParseEdgeBody;

std::string Trim(const std::string& s) { return ingest::TrimWs(s); }

/// Parses a mixed update/query-event file (see the header comment for the
/// syntax). Query-id freshness/liveness is validated at run time by the
/// engine's checked lifecycle API; this parser validates shapes only.
bool LoadEventFile(const std::string& path, StringInterner& interner,
                   std::vector<StreamEvent>& events) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open event file '%s'\n", path.c_str());
    return false;
  }
  std::string line;
  size_t lineno = 0;
  while (std::getline(file, line)) {
    ++lineno;
    size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;

    // "+q ID PATTERN" / "-q ID": query lifecycle events.
    if (start + 1 < line.size() && (line[start] == '+' || line[start] == '-') &&
        line[start + 1] == 'q' &&
        (start + 2 == line.size() || line[start + 2] == ' ' || line[start + 2] == '\t')) {
      const bool is_add = line[start] == '+';
      char* end = nullptr;
      const char* id_begin = line.c_str() + start + 2;
      const unsigned long long id = std::strtoull(id_begin, &end, 10);
      if (end == id_begin) {
        std::fprintf(stderr, "%s:%zu: expected '%cq <id>%s'\n", path.c_str(), lineno,
                     is_add ? '+' : '-', is_add ? " <pattern>" : "");
        return false;
      }
      const QueryId qid = static_cast<QueryId>(id);
      if (!is_add) {
        events.push_back(StreamEvent::Remove(qid));
        continue;
      }
      const std::string pattern_text = Trim(line.substr(end - line.c_str()));
      if (pattern_text.empty()) {
        std::fprintf(stderr, "%s:%zu: '+q %llu' needs a pattern\n", path.c_str(),
                     lineno, id);
        return false;
      }
      ParseResult parsed = ParsePattern(pattern_text, interner);
      if (!parsed.ok) {
        std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), lineno,
                     parsed.error.c_str());
        return false;
      }
      events.push_back(StreamEvent::Add(qid, std::move(parsed.pattern)));
      continue;
    }

    // Everything else is an edge line, as in --stream.
    UpdateOp op = UpdateOp::kAdd;
    if (line[start] == '-') {
      op = UpdateOp::kDelete;
      ++start;
    }
    EdgeUpdate u;
    if (!ParseEdgeBody(line, start, op, interner, &u)) {
      std::fprintf(stderr,
                   "%s:%zu: expected 'src,label,dst', '+q <id> <pattern>' or "
                   "'-q <id>'\n",
                   path.c_str(), lineno);
      return false;
    }
    events.push_back(StreamEvent::Update(u));
  }
  return true;
}

/// Registers the query file's patterns into `engine` (ids 0..N-1).
/// Returns the count, -2 when the file cannot be opened, -1 on a parse
/// error (message already printed).
int LoadQueries(const std::string& query_file, StringInterner& interner,
                ContinuousEngine& engine, bool verbose) {
  std::ifstream file(query_file);
  if (!file) {
    std::fprintf(stderr, "cannot open query file '%s'\n", query_file.c_str());
    return -2;
  }
  std::string line;
  size_t lineno = 0;
  QueryId next_qid = 0;
  while (std::getline(file, line)) {
    ++lineno;
    size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    ParseResult parsed = ParsePattern(line, interner);
    if (!parsed.ok) {
      std::fprintf(stderr, "%s:%zu: %s\n", query_file.c_str(), lineno,
                   parsed.error.c_str());
      return -1;
    }
    if (verbose)
      std::printf("query %u: %s\n", next_qid,
                  parsed.pattern.ToString(interner).c_str());
    engine.AddQuery(next_qid++, parsed.pattern);
  }
  return static_cast<int>(next_qid);
}

bool ParseOverload(const std::string& s, ingest::OverloadPolicy* out) {
  if (s == "block") *out = ingest::OverloadPolicy::kBlock;
  else if (s == "shed") *out = ingest::OverloadPolicy::kShed;
  else if (s == "fail-fast") *out = ingest::OverloadPolicy::kFailFast;
  else return false;
  return true;
}

bool ParseCorrupt(const std::string& s, ingest::CorruptPolicy* out) {
  if (s == "skip") *out = ingest::CorruptPolicy::kSkip;
  else if (s == "fail") *out = ingest::CorruptPolicy::kFail;
  else return false;
  return true;
}

/// The `--gsb` file-replay mode: fault-tolerant binary ingest through the
/// decode -> ring -> apply pipeline, with optional fault injection and
/// snapshot/recovery (see the usage comment up top).
int RunGsbMode(const Flags& flags, EngineKind kind, size_t batch, int threads,
               bool verbose) {
  const std::string gsb_file = flags.GetString("gsb", "");
  const std::string query_file = flags.GetString("queries", "");
  if (query_file.empty()) {
    std::fprintf(stderr, "--gsb needs --queries=FILE\n");
    return 2;
  }

  ingest::OverloadPolicy overload = ingest::OverloadPolicy::kBlock;
  if (!ParseOverload(flags.GetString("overload", "block"), &overload)) {
    std::fprintf(stderr, "--overload must be block, shed, or fail-fast\n");
    return 2;
  }
  ingest::CorruptPolicy on_corrupt = ingest::CorruptPolicy::kSkip;
  if (!ParseCorrupt(flags.GetString("on-corrupt", "skip"), &on_corrupt)) {
    std::fprintf(stderr, "--on-corrupt must be skip or fail\n");
    return 2;
  }

  // Source: the file directly, or an in-memory image with injected faults.
  const uint64_t fault_flips =
      static_cast<uint64_t>(flags.GetIntAtLeast("fault-flips", 0, 0));
  const uint64_t fault_flip_records =
      static_cast<uint64_t>(flags.GetIntAtLeast("fault-flip-records", 0, 0));
  const uint64_t fault_truncate =
      static_cast<uint64_t>(flags.GetIntAtLeast("fault-truncate", 0, 0));
  const bool fault_dup = flags.GetBool("fault-dup", false);
  const bool fault_swap = flags.GetBool("fault-swap", false);
  const bool faulted = fault_flips > 0 || fault_flip_records > 0 ||
                       fault_truncate > 0 || fault_dup || fault_swap;

  std::unique_ptr<ingest::ByteSource> src;
  if (faulted) {
    std::ifstream f(gsb_file, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "cannot open gsb file '%s'\n", gsb_file.c_str());
      return 1;
    }
    std::vector<uint8_t> image((std::istreambuf_iterator<char>(f)),
                               std::istreambuf_iterator<char>());
    const uint64_t fault_seed =
        static_cast<uint64_t>(flags.GetIntAtLeast("fault-seed", 1, 0));
    ingest::FaultInjector injector(fault_seed);
    if (fault_dup) injector.DuplicateRandomBlock(image);
    if (fault_swap) injector.SwapAdjacentBlocks(image);
    if (fault_flips > 0) injector.FlipBytes(image, fault_flips);
    if (fault_flip_records > 0)
      injector.FlipRecordBytes(image, fault_flip_records);
    if (fault_truncate > 0) injector.Truncate(image, fault_truncate);
    std::printf("fault injection: seed=%llu flips=%llu flip-records=%llu "
                "truncate=%llu dup=%d swap=%d\n",
                static_cast<unsigned long long>(fault_seed),
                static_cast<unsigned long long>(fault_flips),
                static_cast<unsigned long long>(fault_flip_records),
                static_cast<unsigned long long>(fault_truncate), fault_dup,
                fault_swap);
    src = std::make_unique<ingest::MemorySource>(std::move(image));
  } else {
    std::string err;
    auto file_src = ingest::FileSource::Open(gsb_file, &err);
    if (file_src == nullptr) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 1;
    }
    src = std::move(file_src);
  }

  ingest::IngestSession session;
  if (!session.Open(*src, on_corrupt)) {
    std::fprintf(stderr, "gsb open failed: %s\n", session.error().c_str());
    return 1;
  }
  std::printf("gsb %s: %llu records, %u dict strings, %zu record blocks\n",
              gsb_file.c_str(),
              static_cast<unsigned long long>(session.header().record_count),
              session.header().dict_count, session.record_block_count());

  auto engine = CreateEngine(kind);
  // Queries intern against the stream's reconstructed dictionary, so their
  // label ids line up with the record frames'.
  const int num_queries =
      LoadQueries(query_file, session.mutable_interner(), *engine, verbose);
  if (num_queries < 0) return num_queries == -2 ? 2 : 1;
  if (num_queries == 0) {
    std::fprintf(stderr, "no queries in '%s'\n", query_file.c_str());
    return 1;
  }
  std::printf("engine %s: %d continuous queries registered\n",
              engine->name().c_str(), num_queries);

  ingest::IngestOptions opts;
  opts.batch_window = batch;
  opts.batch_threads = threads;
  opts.reader_threads = static_cast<int>(flags.GetPositiveInt("readers", 1));
  opts.ring_capacity = static_cast<size_t>(flags.GetPositiveInt("ring", 8));
  opts.overload = overload;
  opts.on_corrupt = on_corrupt;
  opts.consumer_stall_micros =
      static_cast<int>(flags.GetIntAtLeast("stall-us", 0, 0));
  opts.snapshot_every_windows =
      static_cast<uint64_t>(flags.GetIntAtLeast("snapshot-every", 0, 0));
  opts.snapshot_path = flags.GetString("snapshot", "");
  if (!temporal::ParseWindowPolicy(flags.GetString("window-policy", "none"),
                                   &opts.window.policy)) {
    std::fprintf(stderr,
                 "--window-policy must be none, time, count, or label-ttl\n");
    return 2;
  }
  opts.window.width =
      static_cast<uint64_t>(flags.GetIntAtLeast("window-width", 0, 0));

  uint64_t notifications = 0;
  size_t triggering_updates = 0;
  const ingest::ResultCallback cb = [&](uint64_t idx, const UpdateResult& r) {
    if (r.triggered.empty()) return;
    ++triggering_updates;
    notifications += r.new_embeddings;
    if (verbose) {
      std::printf("update %llu:", static_cast<unsigned long long>(idx));
      for (auto [qid, n] : r.per_query)
        std::printf(" q%u+%llu", qid, static_cast<unsigned long long>(n));
      std::printf("\n");
    }
  };

  ingest::IngestStats stats;
  ingest::SnapshotData snap;
  if (flags.GetBool("recover", false)) {
    const std::string snap_path = flags.GetString("snapshot", "");
    if (snap_path.empty()) {
      std::fprintf(stderr, "--recover needs --snapshot=FILE\n");
      return 2;
    }
    std::string err;
    if (!ingest::ReadSnapshot(snap_path, snap, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 1;
    }
    std::printf("recovering from %s: engine=%s offset=%llu windows=%llu\n",
                snap_path.c_str(), snap.engine_name.c_str(),
                static_cast<unsigned long long>(snap.record_offset),
                static_cast<unsigned long long>(snap.windows_finalized));
    stats = ingest::ResumeReplay(*engine, session, snap, opts, cb);
  } else {
    stats = session.Replay(*engine, opts, cb);
  }

  // Machine-greppable counters (the CI fault-injection smoke leg asserts on
  // these), then the human summary in the classic format.
  std::printf("ingest blocks=%llu decoded=%llu crc_mismatches=%llu "
              "blocks_quarantined=%llu records_missing=%llu "
              "snapshots_written=%llu\n",
              static_cast<unsigned long long>(stats.record_blocks),
              static_cast<unsigned long long>(stats.records_decoded),
              static_cast<unsigned long long>(stats.crc_mismatches),
              static_cast<unsigned long long>(stats.blocks_quarantined),
              static_cast<unsigned long long>(stats.records_missing),
              static_cast<unsigned long long>(stats.snapshots_written));
  if (opts.window.enabled())
    std::printf("window policy=%s width=%llu ingested=%llu expired_edges=%llu "
                "expiry_batches=%llu live_edges=%llu watermark=%llu\n",
                temporal::WindowPolicyName(opts.window.policy),
                static_cast<unsigned long long>(opts.window.width),
                static_cast<unsigned long long>(stats.ingested_edges),
                static_cast<unsigned long long>(stats.expired_edges),
                static_cast<unsigned long long>(stats.expiry_batches),
                static_cast<unsigned long long>(stats.live_edges),
                static_cast<unsigned long long>(stats.watermark));
  std::printf("ring pushed=%llu blocked=%llu shed_batches=%llu "
              "shed_records=%llu max_occupancy=%zu\n",
              static_cast<unsigned long long>(stats.ring.batches_pushed),
              static_cast<unsigned long long>(stats.ring.blocked_pushes),
              static_cast<unsigned long long>(stats.ring.batches_shed),
              static_cast<unsigned long long>(stats.ring.records_shed),
              stats.ring.max_occupancy);
  if (verbose) {
    for (const auto& q : stats.quarantine)
      std::printf("quarantined offset=%llu seq=%u: %s\n",
                  static_cast<unsigned long long>(q.offset), q.seq,
                  q.reason.c_str());
  }
  std::printf(
      "%zu updates in %.1f ms (%.4f ms/update); %zu updates triggered, "
      "%llu notifications; %.1f MB engine state%s\n",
      stats.run.updates_applied, stats.run.answer_millis,
      stats.run.MsecPerUpdate(), triggering_updates,
      static_cast<unsigned long long>(notifications),
      static_cast<double>(stats.run.memory_bytes) / (1024.0 * 1024.0),
      stats.run.timed_out ? " [timed out]" : "");
  if (stats.failed) {
    std::fprintf(stderr, "ingest failed: %s\n", stats.error.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* usage =
      "usage: gstream_cli --queries=FILE [--dataset=snb|taxi|bio] "
      "[--updates=N] [--stream=FILE.csv] [--events=FILE] [--gsb=FILE.gsb] "
      "[--engine=tric+|tric|inv|inv+|inc|inc+|graphdb|naive] [--seed=N] "
      "[--verbose] [--batch=N] [--threads=N] (pipeline, window and fault "
      "flags: see the header comment of gstream_cli.cc)";
  Flags flags = Flags::Parse(argc, argv);
  flags.RejectUnknown(
      {"queries", "events", "dataset", "updates", "stream", "gsb", "engine",
       "seed", "verbose", "batch", "threads", "readers", "ring", "overload",
       "on-corrupt", "stall-us", "snapshot", "snapshot-every", "recover",
       "window-policy", "window-width", "fault-seed", "fault-flips",
       "fault-flip-records", "fault-truncate", "fault-dup", "fault-swap"},
      usage);
  const std::string query_file = flags.GetString("queries", "");
  const std::string events_file = flags.GetString("events", "");
  if (query_file.empty() && events_file.empty()) {
    std::fprintf(stderr, "%s\n", usage);
    return 2;
  }
  const std::string dataset = flags.GetString("dataset", "snb");
  const size_t updates = static_cast<size_t>(flags.GetInt("updates", 20'000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const bool verbose = flags.GetBool("verbose", false);
  // Rejects 0/negative/non-numeric values with a clear error (exit 2).
  const size_t batch = static_cast<size_t>(flags.GetPositiveInt("batch", 1));
  const int threads = static_cast<int>(flags.GetPositiveInt("threads", 1));
  const std::string engine_name = flags.GetString("engine", "tric+");
  EngineKind kind = EngineKind::kTricPlus;
  if (!ParseEngineKind(engine_name, &kind)) {
    std::fprintf(stderr, "unknown --engine=%s\n%s\n", engine_name.c_str(), usage);
    return 2;
  }

  // Binary file replay through the fault-tolerant ingest pipeline.
  if (flags.Has("gsb"))
    return RunGsbMode(flags, kind, batch, threads, verbose);

  workload::Workload w;
  const std::string stream_file = flags.GetString("stream", "");
  if (!events_file.empty()) {
    // Mixed event mode: the event file is the whole stream.
    w.name = events_file;
    w.interner = std::make_shared<StringInterner>();
    w.stream = UpdateStream(w.interner);
  } else if (!stream_file.empty()) {
    w.name = stream_file;
    w.interner = std::make_shared<StringInterner>();
    w.stream = UpdateStream(w.interner);
    if (!LoadCsvStream(stream_file, *w.interner, w.stream)) return 2;
  } else {
    w = MakeDataset(dataset, updates, seed);
  }

  auto engine = CreateEngine(kind);
  QueryId next_qid = 0;
  if (!query_file.empty()) {
    const int loaded = LoadQueries(query_file, *w.interner, *engine, verbose);
    if (loaded < 0) return loaded == -2 ? 2 : 1;
    if (loaded == 0) {
      std::fprintf(stderr, "no queries in '%s'\n", query_file.c_str());
      return 1;
    }
    next_qid = static_cast<QueryId>(loaded);
  }

  if (!events_file.empty()) {
    std::vector<StreamEvent> events;
    if (!LoadEventFile(events_file, *w.interner, events)) return 2;

    // Validate lifecycle ids up front (clean CLI errors beat the engine's
    // GS_CHECK abort): adds must be fresh, removals registered.
    std::unordered_set<QueryId> live;
    for (QueryId q = 0; q < next_qid; ++q) live.insert(q);
    size_t num_updates = 0, num_adds = 0, num_removes = 0;
    for (const StreamEvent& ev : events) {
      if (ev.kind == StreamEvent::Kind::kUpdate) {
        ++num_updates;
      } else if (ev.kind == StreamEvent::Kind::kAddQuery) {
        ++num_adds;
        if (!live.insert(ev.qid).second) {
          std::fprintf(stderr, "%s: '+q %u' collides with a registered query id\n",
                       events_file.c_str(), ev.qid);
          return 1;
        }
      } else {
        ++num_removes;
        if (live.erase(ev.qid) == 0) {
          std::fprintf(stderr, "%s: '-q %u' removes an unregistered query id\n",
                       events_file.c_str(), ev.qid);
          return 1;
        }
      }
    }
    if (engine->NumQueries() == 0 && num_adds == 0) {
      std::fprintf(stderr, "no queries registered and none added in '%s'\n",
                   events_file.c_str());
      return 1;
    }
    std::printf("event stream %s: %zu edge updates, %zu query adds, "
                "%zu query removes; %zu queries pre-registered\n",
                events_file.c_str(), num_updates, num_adds, num_removes,
                engine->NumQueries());
    if (batch > 1) {
      std::printf("execution: window-delta batch (window=%zu threads=%d)\n",
                  batch, threads);
    } else {
      std::printf("execution: per-update (batch=1 threads=1)\n");
    }

    RunConfig config;
    config.batch_window = batch;
    config.batch_threads = threads;
    MixedRunStats stats = RunMixedStream(*engine, events, config);
    std::printf(
        "%zu updates in %.1f ms (%.4f ms/update); %zu adds in %.1f ms "
        "(%.4f ms/add); %zu removes in %.1f ms (%.4f ms/remove)\n",
        stats.updates_applied, stats.answer_millis, stats.MsecPerUpdate(),
        stats.queries_added, stats.index_millis, stats.MsecPerAdd(),
        stats.queries_removed, stats.remove_millis, stats.MsecPerRemove());
    std::printf(
        "%llu notifications across %zu satisfied queries; %llu final-join "
        "passes (%llu shared across queries); %llu routed candidates, "
        "%llu prefilter rejects; %.1f MB engine state "
        "(%zu live queries)%s\n",
        static_cast<unsigned long long>(stats.new_embeddings),
        stats.queries_satisfied,
        static_cast<unsigned long long>(engine->final_join_passes()),
        static_cast<unsigned long long>(engine->shared_finalize_groups()),
        static_cast<unsigned long long>(engine->routed_candidates()),
        static_cast<unsigned long long>(engine->prefilter_rejects()),
        static_cast<double>(stats.memory_bytes) / (1024.0 * 1024.0),
        engine->NumQueries(), stats.timed_out ? " [timed out]" : "");
    return 0;
  }

  std::printf("dataset %s: %zu updates, %zu vertices\n", w.name.c_str(),
              w.stream.size(), w.stream.CountVertices(w.stream.size()));
  std::printf("engine %s: %zu continuous queries registered\n",
              engine->name().c_str(), engine->NumQueries());

  // Effective execution configuration, always reported: per-update vs the
  // window-delta batch pipeline and the shard worker count.
  if (batch > 1) {
    std::printf("execution: window-delta batch (window=%zu threads=%d)\n",
                batch, threads);
    engine->SetBatchThreads(threads);
  } else {
    std::printf("execution: per-update (batch=1 threads=1)\n");
  }

  WallTimer timer;
  uint64_t notifications = 0;
  size_t triggering_updates = 0;
  const auto report = [&](size_t i, const UpdateResult& r) {
    if (r.triggered.empty()) return;
    ++triggering_updates;
    notifications += r.new_embeddings;
    if (verbose) {
      const EdgeUpdate& u = w.stream[i];
      std::printf("update %zu (%s)-[%s]->(%s):", i,
                  w.interner->Lookup(u.src).c_str(),
                  w.interner->Lookup(u.label).c_str(),
                  w.interner->Lookup(u.dst).c_str());
      for (auto [qid, n] : r.per_query)
        std::printf(" q%u+%llu", qid, static_cast<unsigned long long>(n));
      std::printf("\n");
    }
  };
  if (batch <= 1) {
    for (size_t i = 0; i < w.stream.size(); ++i)
      report(i, engine->ApplyUpdate(w.stream[i]));
  } else {
    const auto& updates = w.stream.updates();
    for (size_t pos = 0; pos < updates.size(); pos += batch) {
      const size_t n = std::min(batch, updates.size() - pos);
      std::vector<UpdateResult> results = engine->ApplyBatch(&updates[pos], n);
      for (size_t k = 0; k < results.size(); ++k) report(pos + k, results[k]);
    }
  }
  const double ms = timer.ElapsedMillis();
  std::printf(
      "%zu updates in %.1f ms (%.4f ms/update); %zu updates triggered, "
      "%llu notifications; %llu final-join passes (%llu shared across "
      "queries); %llu routed candidates, %llu prefilter rejects; "
      "%.1f MB engine state\n",
      w.stream.size(), ms, ms / w.stream.size(), triggering_updates,
      static_cast<unsigned long long>(notifications),
      static_cast<unsigned long long>(engine->final_join_passes()),
      static_cast<unsigned long long>(engine->shared_finalize_groups()),
      static_cast<unsigned long long>(engine->routed_candidates()),
      static_cast<unsigned long long>(engine->prefilter_rejects()),
      static_cast<double>(engine->MemoryBytes()) / (1024.0 * 1024.0));
  return 0;
}

#ifndef GSTREAM_INGEST_PIPELINE_H_
#define GSTREAM_INGEST_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "engine/driver.h"
#include "engine/engine.h"
#include "ingest/gsb_reader.h"
#include "ingest/ring_buffer.h"
#include "ingest/snapshot.h"
#include "time/window.h"

namespace gstream {
namespace ingest {

/// Configuration of one file-replay run (the CLI's `--gsb` mode).
struct IngestOptions {
  /// Window/thread semantics identical to RunConfig (engine/driver.h).
  size_t batch_window = 1;
  int batch_threads = 1;

  /// Decode threads reading the `.gsb` source concurrently (block-granular).
  int reader_threads = 1;
  /// Ring capacity in batches between decode and apply.
  size_t ring_capacity = 8;
  OverloadPolicy overload = OverloadPolicy::kBlock;
  CorruptPolicy on_corrupt = CorruptPolicy::kSkip;

  double budget_seconds = std::numeric_limits<double>::infinity();

  /// Fault injection: sleep this long after every applied window, simulating
  /// a slow consumer (drives the ring into overload deterministically).
  int consumer_stall_micros = 0;

  /// Snapshot cadence: write `snapshot_path` after every N finalized windows
  /// (0 = no snapshots). Requires OverloadPolicy::kBlock — a shedding run
  /// has no deterministic replayable prefix.
  uint64_t snapshot_every_windows = 0;
  std::string snapshot_path;

  /// Journal replay mode (the socket server's recovery path): every record
  /// block applies as its own window, so replaying a streaming journal —
  /// where the server appended exactly one block per applied window —
  /// reproduces the original run's window boundaries exactly, including
  /// drain-time partial windows. `batch_window` is ignored for windowing;
  /// `batch_threads` still applies.
  bool window_per_block = false;

  /// Crash recovery: fast-forward `[0, resume->record_offset)` with emission
  /// suppressed, verify counters + fingerprint at the boundary, then emit
  /// the tail. Use ResumeReplay, which validates the snapshot first.
  const SnapshotData* resume = nullptr;

  /// Called (when set) immediately before each window applies, with the
  /// next record's global index. The socket server's recovery uses it to
  /// re-register mid-stream subscriptions at their original registration
  /// offsets — the original run processed query registrations at window
  /// boundaries, so replaying them at the same boundaries reproduces the
  /// original engine timeline (a query never sees records older than its
  /// registration, and the boundary counter/fingerprint cross-checks hold).
  std::function<void(uint64_t next_record_index)> window_begin;

  /// Sliding-window expiry (src/time): each applied record is preceded by
  /// the internal deletions its event time makes due, spliced into the same
  /// ApplyBatch window. Internal deletions never consume record indexes —
  /// the record accounting (applied + shed + missing == header count),
  /// snapshot offsets, and the result callback all stay in file-record
  /// terms; expiry flows through the `expired_*` stats instead.
  temporal::WindowConfig window;

  /// Caller-owned WindowManager to splice from instead of a fresh internal
  /// one built from `window`. The socket server passes its own so a recovery
  /// replay leaves the live-edge horizon in the manager the server keeps
  /// splicing from afterwards.
  temporal::WindowManager* window_manager = nullptr;
};

/// Everything one replay run observed, decode side and apply side.
struct IngestStats {
  // Decode side.
  uint64_t record_blocks = 0;       ///< Structurally valid record blocks.
  uint64_t records_decoded = 0;     ///< Records leaving intact blocks.
  uint64_t crc_mismatches = 0;      ///< Record blocks failing payload CRC.
  uint64_t blocks_quarantined = 0;  ///< Framing-scan + decode quarantines.
  BoundedBatchRing::Stats ring;

  // Apply side. `run` aggregates exactly like RunStream (same accumulator).
  RunStats run;
  uint64_t windows_finalized = 0;
  uint64_t snapshots_written = 0;

  // Temporal horizon at end of replay (zero without a window config).
  // Invariant: ingested_edges == live_edges + expired_edges + removed_edges.
  uint64_t ingested_edges = 0;
  uint64_t expired_edges = 0;
  uint64_t removed_edges = 0;
  uint64_t expiry_batches = 0;
  uint64_t live_edges = 0;
  uint64_t watermark = 0;
  /// Records the header promised but the engine never applied: quarantined
  /// blocks plus shed batches. applied + shed + missing == header count.
  uint64_t records_missing = 0;

  bool failed = false;   ///< Replay aborted (corrupt under kFail, overflow
                         ///< under kFailFast, I/O error, failed recovery).
  std::string error;
  std::vector<QuarantineEntry> quarantine;  ///< Capped at kMaxQuarantineLog.

  static constexpr size_t kMaxQuarantineLog = 64;
};

/// Per-update emission hook: `record_index` is the update's global index
/// among *applied* records (quarantined/shed records never consume indexes).
/// During a recovery fast-forward the hook is suppressed for the prefix, so
/// a resumed run emits exactly the uninterrupted run's tail.
using ResultCallback =
    std::function<void(uint64_t record_index, const UpdateResult& result)>;

/// One opened `.gsb` stream: validated header, scanned block framing, and
/// the replayed dictionary. `Open` once, then `Replay` any number of times
/// (each replay re-decodes record payloads; the scan and dictionary are
/// fixed). The interner is the writer's, reconstructed with identical ids —
/// parse queries against it.
class IngestSession {
 public:
  /// Header + framing scan + dictionary replay. False with `error()` set on
  /// a corrupt header, dictionary corruption (always fatal), or — under
  /// CorruptPolicy::kFail — any framing corruption.
  bool Open(const ByteSource& src, CorruptPolicy on_corrupt);

  const std::string& error() const { return error_; }
  const GsbHeader& header() const { return reader_ ? reader_->header() : empty_header_; }
  GsbIdentity identity() const { return reader_ ? reader_->identity() : GsbIdentity{}; }
  const StringInterner& interner() const { return interner_; }
  /// Mutable access for parsing queries against the stream's dictionary:
  /// query labels absent from the dictionary intern *after* it (ids >=
  /// dict_count), so record frames are unaffected.
  StringInterner& mutable_interner() { return interner_; }
  size_t record_block_count() const { return record_blocks_.size(); }

  /// Streams the file's records through `engine`: N reader threads decode
  /// blocks into the bounded ring, the calling thread reassembles stream
  /// order and applies windows through ApplyStreamWindow (engine/driver.h;
  /// byte-identical to sequential execution), finalizing snapshots at the
  /// configured cadence. `cb`, when
  /// set, fires once per applied record in stream order.
  IngestStats Replay(ContinuousEngine& engine, const IngestOptions& opts,
                     const ResultCallback& cb = nullptr);

 private:
  const ByteSource* src_ = nullptr;
  std::unique_ptr<GsbReader> reader_;
  std::vector<GsbBlockRef> record_blocks_;
  StringInterner interner_;
  std::string error_;
  GsbHeader empty_header_;
};

/// Validates an IngestOptions combination up front. Returns "" when valid,
/// otherwise a one-line description of the first problem (bad thread/window
/// counts, snapshot cadence without a path or under a shedding policy,
/// resume under a shedding policy). `Replay` runs this first and fails the
/// stats cleanly — it never GS_CHECK-aborts on a caller-supplied config —
/// and the socket server reuses it to reject bad configs at startup.
std::string ValidateIngestOptions(const IngestOptions& opts);

/// Crash-recovery entry point: validates `snap` against the session's stream
/// identity and `engine`'s name, pins `opts` to the recovery contract
/// (OverloadPolicy::kBlock), and replays with `opts.resume = &snap`. The
/// engine must be freshly created with the same queries registered in the
/// same order as the original run.
IngestStats ResumeReplay(ContinuousEngine& engine, IngestSession& session,
                         const SnapshotData& snap, IngestOptions opts,
                         const ResultCallback& cb = nullptr);

}  // namespace ingest
}  // namespace gstream

#endif  // GSTREAM_INGEST_PIPELINE_H_

#include "ingest/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/timer.h"

namespace gstream {
namespace ingest {

namespace {

void AddQuarantine(IngestStats& stats, QuarantineEntry entry) {
  ++stats.blocks_quarantined;
  if (stats.quarantine.size() < IngestStats::kMaxQuarantineLog)
    stats.quarantine.push_back(std::move(entry));
}

}  // namespace

bool IngestSession::Open(const ByteSource& src, CorruptPolicy on_corrupt) {
  src_ = &src;
  reader_ = std::make_unique<GsbReader>(src);
  record_blocks_.clear();
  interner_ = StringInterner();
  error_.clear();

  if (!reader_->Open()) {
    error_ = reader_->error();
    return false;
  }
  std::vector<GsbBlockRef> blocks;
  if (!reader_->ScanBlocks(on_corrupt, blocks)) {
    error_ = reader_->error();
    return false;
  }
  std::vector<GsbBlockRef> dict_blocks;
  for (const GsbBlockRef& b : blocks)
    (b.kind == GsbBlockKind::kDict ? dict_blocks : record_blocks_).push_back(b);
  if (!reader_->DecodeDict(dict_blocks, interner_)) {
    error_ = reader_->error();
    return false;
  }
  return true;
}

std::string ValidateIngestOptions(const IngestOptions& opts) {
  if (opts.batch_window < 1) return "batch_window must be >= 1";
  if (opts.batch_threads < 1) return "batch_threads must be >= 1";
  if (opts.reader_threads < 1) return "reader_threads must be >= 1";
  if (opts.ring_capacity < 1) return "ring_capacity must be >= 1";
  if (opts.consumer_stall_micros < 0)
    return "consumer_stall_micros must be >= 0";
  if (!(opts.budget_seconds > 0)) return "budget_seconds must be positive";
  if (opts.snapshot_every_windows > 0) {
    if (opts.snapshot_path.empty())
      return "snapshot cadence set but no snapshot path";
    if (opts.overload != OverloadPolicy::kBlock)
      return "snapshots require --overload=block (a shedding run has no "
             "deterministic replayable prefix)";
  }
  if (opts.resume != nullptr && opts.overload != OverloadPolicy::kBlock)
    return "recovery requires --overload=block (shedding is not replayable)";
  const std::string werr = temporal::ValidateWindowConfig(opts.window);
  if (!werr.empty()) return werr;
  if (opts.window_manager != nullptr && !opts.window_manager->config().enabled())
    return "window manager supplied without an expiry policy";
  return "";
}

IngestStats IngestSession::Replay(ContinuousEngine& engine,
                                  const IngestOptions& opts,
                                  const ResultCallback& cb) {
  IngestStats stats;
  const auto fail = [&](const std::string& why) {
    stats.failed = true;
    if (stats.error.empty()) stats.error = why;
  };

  const std::string verr = ValidateIngestOptions(opts);
  if (!verr.empty()) {
    fail(verr);
    return stats;
  }
  if (reader_ == nullptr) {
    fail("ingest session not opened");
    return stats;
  }
  const uint64_t resume_offset =
      opts.resume != nullptr ? opts.resume->record_offset : 0;
  if (opts.resume != nullptr) {
    // ResumeReplay validates these up front; re-check cheaply so a direct
    // Replay call cannot silently mix streams or engines.
    if (opts.resume->stream != identity()) {
      fail("snapshot stream identity does not match the opened file");
      return stats;
    }
    if (opts.resume->engine_name != engine.name()) {
      fail("snapshot engine '" + opts.resume->engine_name +
           "' does not match engine '" + engine.name() + "'");
      return stats;
    }
  }

  stats.record_blocks = record_blocks_.size();
  for (const QuarantineEntry& q : reader_->scan_quarantine())
    AddQuarantine(stats, q);

  const bool batched = opts.batch_window > 1 || opts.window_per_block;
  EngineRunScope run(engine, opts.budget_seconds,
                     batched ? opts.batch_threads : 1);

  BoundedBatchRing ring(opts.ring_capacity);
  std::atomic<size_t> next_block{0};
  std::mutex decode_mu;  // guards the decode-side aggregates below
  uint64_t decode_records = 0;
  uint64_t decode_crc_mismatches = 0;
  std::vector<QuarantineEntry> decode_quarantine;
  std::atomic<bool> decode_failed{false};
  std::string decode_error;

  const int readers = std::max(1, opts.reader_threads);
  const size_t num_blocks = record_blocks_.size();
  for (int t = 0; t < readers; ++t) ring.AddProducer();
  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&] {
      // Reader thread: claim record blocks by atomic index, decode, push.
      // Batch seq is the block's dense index among *record* blocks — the
      // consumer reassembles stream order from it, so threads may finish
      // out of order.
      while (!ring.aborted()) {
        const size_t i = next_block.fetch_add(1, std::memory_order_relaxed);
        if (i >= num_blocks) break;
        const GsbBlockRef& block = record_blocks_[i];
        RecordBatch batch;
        batch.seq = i;
        std::string reason;
        if (reader_->DecodeRecords(block, batch.records, &reason) ==
            DecodeStatus::kCorrupt) {
          std::lock_guard<std::mutex> lock(decode_mu);
          ++decode_crc_mismatches;
          if (opts.on_corrupt == CorruptPolicy::kFail) {
            if (decode_error.empty())
              decode_error = "corrupt record block seq " +
                             std::to_string(block.seq) + ": " + reason;
            decode_failed.store(true, std::memory_order_relaxed);
            ring.Abort();
            break;
          }
          decode_quarantine.push_back(
              {block.payload_offset - kGsbBlockHeaderBytes, block.seq,
               std::move(reason)});
          batch.records.clear();
          batch.corrupt = true;  // placeholder keeps the reassembly moving
        } else {
          std::lock_guard<std::mutex> lock(decode_mu);
          decode_records += batch.records.size();
        }
        const auto r = ring.Push(std::move(batch), opts.overload);
        if (r == BoundedBatchRing::PushResult::kOverflow) {
          std::lock_guard<std::mutex> lock(decode_mu);
          if (decode_error.empty())
            decode_error = "ring overflow under --overload=fail-fast";
          decode_failed.store(true, std::memory_order_relaxed);
          ring.Abort();
          break;
        }
        if (r == BoundedBatchRing::PushResult::kAborted) break;
      }
      ring.ProducerDone();
    });
  }

  // Apply side (this thread): reassemble block order, fill windows, apply.
  // acc counts records only, so acc.stats.updates_applied is the next
  // record's global index. Emission is suppressed over the fast-forward
  // prefix; a resumed run emits exactly the uninterrupted run's tail.
  ResultAccumulator acc;
  if (cb)
    acc.sink = [&](uint64_t index, const UpdateResult& result) {
      if (index >= resume_offset) cb(index, result);
    };
  std::map<uint64_t, RecordBatch> pending;  // out-of-order arrivals
  std::vector<EdgeUpdate> window_buf;
  uint64_t next_seq = 0;           // next record-block index to consume
  bool verified = resume_offset == 0;
  bool stop = false;

  // Sliding-window expiry: caller-owned manager (the server's, so recovery
  // leaves the live horizon where live splicing continues) or a local one.
  temporal::WindowManager local_wm(opts.window);
  temporal::WindowManager* wm =
      opts.window_manager != nullptr ? opts.window_manager : &local_wm;

  // Counter + fingerprint cross-check at the resume boundary: the
  // fast-forward just recomputed everything the snapshot recorded, so any
  // divergence means wrong queries, wrong engine build, or a stream edit.
  const auto verify_boundary = [&]() {
    const SnapshotData& snap = *opts.resume;
    if (acc.stats.updates_applied != snap.updates_applied ||
        acc.stats.new_embeddings != snap.new_embeddings ||
        stats.windows_finalized != snap.windows_finalized) {
      fail("recovery cross-check failed at record " +
           std::to_string(resume_offset) + ": replayed counters (applied=" +
           std::to_string(acc.stats.updates_applied) + ", embeddings=" +
           std::to_string(acc.stats.new_embeddings) + ", windows=" +
           std::to_string(stats.windows_finalized) +
           ") do not match the snapshot");
      return false;
    }
    std::vector<QueryId> sat(acc.satisfied.begin(), acc.satisfied.end());
    std::sort(sat.begin(), sat.end());
    if (sat != snap.satisfied) {
      fail("recovery cross-check failed: satisfied-query set diverged");
      return false;
    }
    const uint64_t fp = engine.StateFingerprint();
    if (snap.fingerprint != 0 && fp != snap.fingerprint) {
      fail("recovery fingerprint mismatch at record " +
           std::to_string(resume_offset) +
           ": the fast-forwarded engine state differs from the snapshot");
      return false;
    }
    if (wm->ingested_edges() != snap.ingested_edges ||
        wm->expired_edges() != snap.expired_edges ||
        wm->removed_edges() != snap.removed_edges ||
        wm->expiry_batches() != snap.expiry_batches ||
        wm->live_edges() != snap.live_edges ||
        wm->watermark() != snap.watermark) {
      fail("recovery cross-check failed at record " +
           std::to_string(resume_offset) +
           ": the rebuilt window horizon (live=" +
           std::to_string(wm->live_edges()) + ", expired=" +
           std::to_string(wm->expired_edges()) + ", watermark=" +
           std::to_string(wm->watermark()) +
           ") does not match the snapshot (window config drift?)");
      return false;
    }
    return true;
  };

  // Applies window_buf[0..n). Returns false when the replay must stop
  // (timeout, failed verification, failed snapshot write).
  const auto apply_window = [&](size_t n) {
    if (opts.window_begin) opts.window_begin(acc.stats.updates_applied);
    WallTimer timer;
    ApplyStreamWindow(engine, window_buf.data(), n, acc, run.budget(), wm);
    acc.stats.answer_millis += timer.ElapsedMillis();
    window_buf.erase(window_buf.begin(), window_buf.begin() + n);
    ++stats.windows_finalized;

    if (!verified && !acc.stats.timed_out) {
      if (acc.stats.updates_applied == resume_offset) {
        if (!verify_boundary()) return false;
        verified = true;
      } else if (acc.stats.updates_applied > resume_offset) {
        fail("resume offset " + std::to_string(resume_offset) +
             " is not a window boundary of this run (different batch window "
             "or stream than the snapshotted run)");
        return false;
      }
    }

    if (!acc.stats.timed_out && opts.snapshot_every_windows > 0 &&
        stats.windows_finalized % opts.snapshot_every_windows == 0 &&
        acc.stats.updates_applied > resume_offset) {
      SnapshotData snap;
      snap.stream = identity();
      snap.engine_name = engine.name();
      snap.record_offset = acc.stats.updates_applied;
      snap.windows_finalized = stats.windows_finalized;
      snap.updates_applied = acc.stats.updates_applied;
      snap.new_embeddings = acc.stats.new_embeddings;
      snap.fingerprint = engine.StateFingerprint();
      snap.satisfied.assign(acc.satisfied.begin(), acc.satisfied.end());
      std::sort(snap.satisfied.begin(), snap.satisfied.end());
      snap.ingested_edges = wm->ingested_edges();
      snap.expired_edges = wm->expired_edges();
      snap.removed_edges = wm->removed_edges();
      snap.expiry_batches = wm->expiry_batches();
      snap.live_edges = wm->live_edges();
      snap.watermark = wm->watermark();
      std::string werr;
      if (!WriteSnapshot(opts.snapshot_path, snap, &werr)) {
        fail("snapshot write failed: " + werr);
        return false;
      }
      ++stats.snapshots_written;
    }

    if (opts.consumer_stall_micros > 0)
      std::this_thread::sleep_for(
          std::chrono::microseconds(opts.consumer_stall_micros));
    return !acc.stats.timed_out;
  };

  const auto consume_batch = [&](RecordBatch&& batch) {
    window_buf.insert(window_buf.end(), batch.records.begin(),
                      batch.records.end());
    if (opts.window_per_block) {
      // Journal mode: one record block = one applied window, reproducing the
      // writing server's window boundaries (including drain-time partials).
      if (!window_buf.empty() && !apply_window(window_buf.size())) return false;
      return true;
    }
    while (window_buf.size() >= opts.batch_window)
      if (!apply_window(opts.batch_window)) return false;
    return true;
  };

  // Advances next_seq over pending arrivals and shed blocks; false when the
  // next block is neither (still in flight — Pop for more).
  const auto advance = [&]() {
    for (;;) {
      auto it = pending.find(next_seq);
      if (it != pending.end()) {
        RecordBatch batch = std::move(it->second);
        pending.erase(it);
        ++next_seq;
        if (!consume_batch(std::move(batch))) stop = true;
        if (stop) return false;
        continue;
      }
      if (ring.TakeShed(next_seq) >= 0) {
        ++next_seq;  // shed records counted via ring stats
        continue;
      }
      return true;
    }
  };

  RecordBatch popped;
  while (!stop && advance() && ring.Pop(popped))
    pending.emplace(popped.seq, std::move(popped));

  // Producers are done (or the run aborted): drain the remaining pending /
  // shed blocks, then apply the final partial window.
  if (!stop) advance();
  if (!stop && !window_buf.empty() && !apply_window(window_buf.size()))
    stop = true;
  ring.Abort();  // releases any producer still blocked on a full ring
  for (std::thread& t : threads) t.join();

  acc.Finish(engine);
  stats.run = acc.stats;
  stats.ingested_edges = wm->ingested_edges();
  stats.expired_edges = wm->expired_edges();
  stats.removed_edges = wm->removed_edges();
  stats.expiry_batches = wm->expiry_batches();
  stats.live_edges = wm->live_edges();
  stats.watermark = wm->watermark();
  stats.records_decoded = decode_records;
  stats.crc_mismatches = decode_crc_mismatches;
  for (QuarantineEntry& q : decode_quarantine) AddQuarantine(stats, std::move(q));
  stats.ring = ring.stats();
  const uint64_t accounted =
      stats.run.updates_applied + stats.ring.records_shed;
  stats.records_missing =
      header().record_count > accounted ? header().record_count - accounted : 0;

  if (decode_failed.load(std::memory_order_relaxed)) fail(decode_error);
  if (!verified && !stats.failed && !stats.run.timed_out)
    fail("stream ended before the snapshot's resume offset " +
         std::to_string(resume_offset) + " — truncated or wrong file");
  return stats;
}

IngestStats ResumeReplay(ContinuousEngine& engine, IngestSession& session,
                         const SnapshotData& snap, IngestOptions opts,
                         const ResultCallback& cb) {
  IngestStats stats;
  if (snap.stream != session.identity()) {
    stats.failed = true;
    stats.error = "snapshot was taken against a different stream file";
    return stats;
  }
  if (snap.engine_name != engine.name()) {
    stats.failed = true;
    stats.error = "snapshot engine '" + snap.engine_name +
                  "' does not match engine '" + engine.name() + "'";
    return stats;
  }
  opts.overload = OverloadPolicy::kBlock;  // the recovery contract
  opts.resume = &snap;
  return session.Replay(engine, opts, cb);
}

}  // namespace ingest
}  // namespace gstream

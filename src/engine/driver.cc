#include "engine/driver.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/timer.h"
#include "time/window.h"

namespace gstream {

IndexStats IndexQueries(ContinuousEngine& engine,
                        const std::vector<QueryPattern>& queries, QueryId first_qid) {
  IndexStats stats;
  WallTimer timer;
  QueryId qid = first_qid;
  for (const auto& q : queries) engine.AddQuery(qid++, q);
  stats.index_millis = timer.ElapsedMillis();
  stats.queries_indexed = queries.size();
  return stats;
}

EngineRunScope::EngineRunScope(ContinuousEngine& engine, double budget_seconds,
                               int batch_threads)
    : engine_(engine), threaded_(batch_threads > 1) {
  if (std::isfinite(budget_seconds)) budget_.SetDeadlineAfter(budget_seconds);
  engine_.set_budget(&budget_);
  if (threaded_) engine_.SetBatchThreads(batch_threads);
}

EngineRunScope::EngineRunScope(ContinuousEngine& engine, const RunConfig& config)
    : EngineRunScope(engine, config.budget_seconds,
                     config.batch_window > 1 ? config.batch_threads : 1) {
  GS_CHECK_MSG(config.batch_window >= 1, "batch_window must be >= 1");
  GS_CHECK_MSG(config.batch_threads >= 1, "batch_threads must be >= 1");
}

EngineRunScope::~EngineRunScope() {
  if (threaded_) engine_.SetBatchThreads(1);
  engine_.set_budget(nullptr);
}

bool ApplyStreamWindow(ContinuousEngine& engine, const EdgeUpdate* records,
                       size_t n, ResultAccumulator& acc, Budget* budget,
                       temporal::WindowManager* expiry) {
  const bool splice = expiry != nullptr && expiry->config().enabled();
  const EdgeUpdate* window = records;
  size_t count = n;
  if (splice) {
    acc.spliced.clear();
    acc.spliced_is_record.clear();
    for (size_t i = 0; i < n; ++i) {
      expiry->Advance(records[i], acc.spliced);
      acc.spliced_is_record.resize(acc.spliced.size(), 0);
      acc.spliced.push_back(records[i]);
      acc.spliced_is_record.push_back(1);
    }
    window = acc.spliced.data();
    count = acc.spliced.size();
  }

  bool timed_out = false;
  if (count == 1) {
    timed_out = acc.Absorb(engine.ApplyUpdate(*window));
  } else {
    const std::vector<UpdateResult> results = engine.ApplyBatch(window, count);
    for (size_t k = 0; k < results.size(); ++k) {
      if (splice && acc.spliced_is_record[k] == 0)
        timed_out |= results[k].timed_out;
      else
        timed_out |= acc.Absorb(results[k]);
    }
    timed_out |= results.size() < count;
  }
  if (timed_out || (budget != nullptr && budget->ExceededNow()))
    acc.stats.timed_out = true;
  return !acc.stats.timed_out;
}

RunStats RunStream(ContinuousEngine& engine, const UpdateStream& stream,
                   const RunConfig& config, ResultAccumulator::Sink sink) {
  EngineRunScope run(engine, config);
  ResultAccumulator acc;
  acc.sink = std::move(sink);
  WallTimer total;
  const std::vector<EdgeUpdate>& updates = stream.updates();
  for (size_t pos = 0; pos < updates.size(); pos += config.batch_window) {
    const size_t n = std::min(config.batch_window, updates.size() - pos);
    if (!ApplyStreamWindow(engine, &updates[pos], n, acc, run.budget())) break;
  }
  acc.stats.answer_millis = total.ElapsedMillis();
  acc.Finish(engine);
  return acc.stats;
}

MixedRunStats RunMixedStream(ContinuousEngine& engine,
                             const std::vector<StreamEvent>& events,
                             const RunConfig& config,
                             ResultAccumulator::Sink sink) {
  EngineRunScope run(engine, config);
  ResultAccumulator acc;
  acc.sink = std::move(sink);
  MixedRunStats stats;
  const auto is_update = [&](size_t k) {
    return k < events.size() && events[k].kind == StreamEvent::Kind::kUpdate;
  };

  std::vector<EdgeUpdate> window;
  size_t i = 0;
  while (i < events.size() && !acc.stats.timed_out) {
    const StreamEvent& ev = events[i];
    if (ev.kind == StreamEvent::Kind::kUpdate) {
      // One run of consecutive updates, fed in windows up to the next query
      // event (a barrier).
      WallTimer timer;
      while (is_update(i) && !acc.stats.timed_out) {
        window.clear();
        for (; is_update(i) && window.size() < config.batch_window; ++i)
          window.push_back(events[i].update);
        ApplyStreamWindow(engine, window.data(), window.size(), acc,
                          run.budget());
      }
      stats.answer_millis += timer.ElapsedMillis();
      continue;
    }

    if (ev.kind == StreamEvent::Kind::kAddQuery) {
      WallTimer timer;
      engine.AddQuery(ev.qid, ev.query);
      stats.index_millis += timer.ElapsedMillis();
      ++stats.queries_added;
    } else {
      WallTimer timer;
      GS_CHECK_MSG(engine.RemoveQuery(ev.qid),
                   "RunMixedStream: removing unknown query id " +
                       std::to_string(ev.qid));
      stats.remove_millis += timer.ElapsedMillis();
      ++stats.queries_removed;
    }
    ++i;
    if (run.budget()->ExceededNow()) acc.stats.timed_out = true;
  }

  acc.Finish(engine);
  stats.updates_applied = acc.stats.updates_applied;
  stats.new_embeddings = acc.stats.new_embeddings;
  stats.queries_satisfied = acc.stats.queries_satisfied;
  stats.timed_out = acc.stats.timed_out;
  stats.memory_bytes = acc.stats.memory_bytes;
  return stats;
}

}  // namespace gstream

#include "time/windowed_stream.h"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "common/logging.h"

namespace gstream {
namespace temporal {

namespace {

/// TTL'd-query expiry heap entry; lazy staleness against the expiry map (an
/// explicit RemoveQuery retires the entry before it surfaces).
struct QueryExpiry {
  uint64_t expiry = 0;
  QueryId qid = 0;
  bool operator>(const QueryExpiry& o) const {
    return expiry != o.expiry ? expiry > o.expiry : qid > o.qid;
  }
};

}  // namespace

ExpiryOracle MaterializeExpiryOracle(const std::vector<StreamEvent>& events,
                                     const WindowConfig& config) {
  ExpiryOracle out;
  out.events.reserve(events.size());
  out.synthetic.reserve(events.size());
  WindowManager wm(config);

  std::priority_queue<QueryExpiry, std::vector<QueryExpiry>,
                      std::greater<QueryExpiry>>
      qheap;
  std::unordered_map<QueryId, uint64_t> ttl_expiry;
  uint64_t qwm = 0;  ///< Query watermark: max observed ts, any policy.

  std::vector<EdgeUpdate> deletes;
  const auto push = [&](StreamEvent e, bool synthetic) {
    out.events.push_back(std::move(e));
    out.synthetic.push_back(synthetic ? 1 : 0);
  };

  for (const StreamEvent& ev : events) {
    if (ev.kind == StreamEvent::Kind::kUpdate) {
      qwm = std::max(qwm, ev.update.ts);
      // (1) TTL'd-query removal wave due at this watermark, in (expiry, qid)
      // order. A stale heap entry (query explicitly removed first) is
      // skipped; the inverse order — an explicit RemoveQuery *after* the
      // query's TTL expiry — is invalid input and fails the executor's
      // unknown-qid check, same as any double removal.
      while (!qheap.empty() && qheap.top().expiry <= qwm) {
        const QueryExpiry top = qheap.top();
        qheap.pop();
        auto it = ttl_expiry.find(top.qid);
        if (it == ttl_expiry.end() || it->second != top.expiry) continue;
        ttl_expiry.erase(it);
        push(StreamEvent::Remove(top.qid), true);
        ++out.expired_queries;
      }
      // (2) Edge expiry due before this update.
      deletes.clear();
      wm.Advance(ev.update, deletes);
      for (const EdgeUpdate& d : deletes) push(StreamEvent::Update(d), true);
      // (3) The update itself.
      push(ev, false);
    } else if (ev.kind == StreamEvent::Kind::kAddQuery) {
      StreamEvent copy = ev;
      if (copy.query_ttl > 0) {
        const uint64_t expiry = qwm + copy.query_ttl;
        ttl_expiry[copy.qid] = expiry;
        qheap.push(QueryExpiry{expiry, copy.qid});
        copy.query_ttl = 0;  // The expansion makes the removal explicit.
      }
      push(std::move(copy), false);
    } else {
      ttl_expiry.erase(ev.qid);
      push(ev, false);
    }
  }

  out.ingested_edges = wm.ingested_edges();
  out.expired_edges = wm.expired_edges();
  out.removed_edges = wm.removed_edges();
  out.expiry_batches = wm.expiry_batches();
  out.live_edges = wm.live_edges();
  out.watermark = qwm;
  return out;
}

WindowedRunStats RunWindowedStream(ContinuousEngine& engine,
                                   const std::vector<StreamEvent>& events,
                                   const WindowConfig& window,
                                   const RunConfig& config,
                                   ResultAccumulator::Sink sink) {
  GS_CHECK_MSG(ValidateWindowConfig(window).empty(),
               "RunWindowedStream: " + ValidateWindowConfig(window));
  ExpiryOracle oracle = MaterializeExpiryOracle(events, window);
  WindowedRunStats stats;
  stats.ingested_edges = oracle.ingested_edges;
  stats.expired_edges = oracle.expired_edges;
  stats.removed_edges = oracle.removed_edges;
  stats.expiry_batches = oracle.expiry_batches;
  stats.expired_queries = oracle.expired_queries;
  stats.live_edges = oracle.live_edges;
  stats.watermark = oracle.watermark;
  stats.mixed = RunMixedStream(engine, oracle.events, config, std::move(sink));
  return stats;
}

}  // namespace temporal
}  // namespace gstream

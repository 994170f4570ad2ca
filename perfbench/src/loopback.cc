// server-loopback: the benchmark is the server's user. One producer and one
// subscriber connection talk to a fresh in-process Server over 127.0.0.1;
// records are fed in closed-loop bursts (throughput) and then on a fixed
// open-loop schedule (notification latency).

#include <malloc.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gstream::EdgeUpdate;
namespace server = gstream::server;

// Progress frames, which carry the producer's applied offset that
// WaitApplied blocks on, are sent after this much outbound silence, so a
// burst waits up to this long for its ack. The 1 s default would dominate
// every burst; it must stay above the apply thread's 20 ms control-op tick,
// or a Progress frame can beat the HelloAck and fail the handshake.
constexpr int kHeartbeatMillis = 50;
// How long the cycle waits for outstanding notifications before counting
// them as missing.
constexpr int64_t kDrainTimeoutNs = 10'000'000'000;

struct Received {
  uint64_t index = 0;
  int64_t at_ns = 0;
  std::vector<std::pair<uint32_t, uint64_t>> counts;
};

void Check(bool ok, const std::string& what, const std::string& err) {
  if (!ok) throw std::runtime_error(what + ": " + err);
}

/// The closed-loop bursts: (end record, notifications expected up to it)
/// per burst. Throws unless every burst is whole server windows and its last
/// window notifies something, so the arrival of the burst's last
/// notification proves the burst applied.
std::vector<std::pair<size_t, uint64_t>> LoopbackBurstEnds(const Inputs& in,
                                                           const Reference& ref) {
  constexpr size_t kWindow = 32;  // ServerOptions::batch_window default
  if (in.burst_size % kWindow != 0 || in.burst_records % in.burst_size != 0)
    throw std::logic_error("bursts must be whole server windows");
  std::vector<std::pair<size_t, uint64_t>> ends;
  uint64_t expect = 0;
  size_t last = 0;  // 1 + index of the last notifying record so far
  for (size_t i = 0; i < in.burst_records; ++i) {
    if (ref.per_record[i] != 0) {
      ++expect;
      last = i + 1;
    }
    if ((i + 1) % in.burst_size != 0) continue;
    if (last + kWindow <= i + 1)
      throw std::logic_error("a burst's last server window notifies nothing");
    ends.emplace_back(i + 1, expect);
  }
  return ends;
}

/// Heap bytes in use across every malloc arena of the process.
size_t HeapInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

}  // namespace

void RunLoopbackCycle(const CycleSetup& setup, Cycles& cy, Ledger& ledger) {
  const Inputs& in = *setup.in;
  Tracer* tr = setup.tracer;
  const size_t n = in.records.size();
  std::string err;

  std::mutex mu;
  std::condition_variable arrived;
  std::vector<Received> got;  // guarded by mu
  got.reserve(setup.ref->notifications);
  const auto await_count = [&](uint64_t count, int64_t deadline_ns) {
    std::unique_lock<std::mutex> lock(mu);
    arrived.wait_until(lock, Clock::time_point(std::chrono::nanoseconds(deadline_ns)),
                       [&] { return got.size() >= count; });
  };

  // Setup items, each timed alone: server start, subscriber connect, one per
  // subscription, producer connect.
  std::vector<double> setup_us;
  const auto setup_step = [&](int64_t since) {
    const int64_t now = NowNs();
    setup_us.push_back(static_cast<double>(now - since) / 1e3);
    return now;
  };
  const size_t heap_before = HeapInUse();
  int64_t t_setup = NowNs();
  server::ServerOptions so;
  so.heartbeat_millis = kHeartbeatMillis;
  server::Server srv(so);
  Check(srv.Start(&err), "server start", err);
  t_setup = setup_step(t_setup);

  server::ClientOptions co;
  co.port = srv.port();
  co.name = "subscriber";
  server::Client sub(co);
  sub.OnNotify([&](const server::NotifyMsg& m) {
    Received r{m.record_index, NowNs(), m.counts};
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(std::move(r));
    arrived.notify_all();
  });
  Check(sub.Connect(&err), "subscriber connect", err);
  t_setup = setup_step(t_setup);
  std::vector<double> sub_ms;
  for (size_t i = 0; i < in.patterns.size(); ++i) {
    server::SubAckMsg ack;
    const int64_t t0 = NowNs();
    if (tr != nullptr) tr->Begin("server.subscribe");
    Check(sub.Subscribe(in.qids[i], in.patterns[i], &ack, &err), "subscribe", err);
    if (tr != nullptr) {
      tr->Mark("server.sub_ack");
      tr->End();
    }
    sub_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    t_setup = setup_step(t_setup);
    if (ack.status == static_cast<uint8_t>(server::SubStatus::kError))
      ledger.Fail("subscription rejected");
  }
  co.name = "producer";
  server::Client prod(co);
  Check(prod.Connect(&err), "producer connect", err);
  std::vector<std::string> dict;
  dict.reserve(in.interner->size());
  for (uint32_t id = 0; id < in.interner->size(); ++id)
    dict.push_back(in.interner->Lookup(id));
  prod.SetDictionary(std::move(dict));
  setup_step(t_setup);

  // Closed loop. A burst ends when the subscriber holds the burst's last
  // notification: the server fans a window's notifications out as soon as
  // it applies the window, and the burst's last window holds a notifying
  // record (checked by LoopbackBurstEnds), so that arrival means the whole
  // burst is applied. The producer's own ack (WaitApplied) arrives only
  // with a heartbeat Progress frame, which would turn each burst into a
  // heartbeat period; it is awaited once after the last burst and reported
  // as server.apply_wait_ms.
  std::vector<double> stream_us, burst_us;
  int64_t last_sent = 0;
  for (const auto& [end, expect] : LoopbackBurstEnds(in, *setup.ref)) {
    const std::vector<EdgeUpdate> burst(in.records.begin() + (end - in.burst_size),
                                        in.records.begin() + end);
    if (tr != nullptr) tr->Begin("server.burst");
    const int64_t t0 = NowNs();
    if (tr != nullptr) tr->Begin("server.stream_edges");
    Check(prod.StreamEdges(burst, &err), "stream edges", err);
    if (tr != nullptr) tr->End();
    last_sent = NowNs();
    if (tr != nullptr) tr->Begin("server.await_notification");
    await_count(expect, last_sent + kDrainTimeoutNs);
    if (tr != nullptr) tr->End();
    const int64_t t1 = NowNs();
    if (tr != nullptr) tr->End();
    stream_us.push_back(static_cast<double>(last_sent - t0) / 1e3);
    burst_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  if (tr != nullptr) tr->Begin("server.wait_applied");
  Check(prod.WaitApplied(in.burst_records, &err), "wait applied", err);
  if (tr != nullptr) tr->End();
  const double wait_ms = static_cast<double>(NowNs() - last_sent) / 1e6;

  // Open loop: record j is due at start + j / rate whether or not the server
  // kept up; latency runs from the due time to the notification's arrival.
  const size_t paced = n - in.burst_records;
  const double interval_ns = 1e9 / in.paced_rate;
  const int64_t start = NowNs() + 1'000'000;
  int64_t lag_max = 0;
  for (size_t j = 0; j < paced; ++j) {
    const int64_t due = start + static_cast<int64_t>(static_cast<double>(j) * interval_ns);
    int64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = NowNs();
    }
    lag_max = std::max(lag_max, now - due);
    const std::vector<EdgeUpdate> one{in.records[in.burst_records + j]};
    if (tr != nullptr) tr->Begin("server.stream_edges");
    Check(prod.StreamEdges(one, &err), "stream edges", err);
    if (tr != nullptr) tr->End();
  }
  Check(prod.WaitApplied(n, &err), "wait applied", err);
  await_count(setup.ref->notifications, NowNs() + kDrainTimeoutNs);
  const size_t heap_after = HeapInUse();
  prod.Close();
  sub.Close();
  srv.Drain();
  const server::ServerStats st = srv.stats();

  // The subscriber's reader thread has stopped: `got` is ours alone.
  std::vector<uint64_t> hashes(n, 0);
  std::vector<char> fired(in.qids.size(), 0);
  // Latency per paced record the reference says notifies, in record order;
  // a missing notification (a failure) reads as the drain timeout.
  std::vector<double> latency_ms;
  std::vector<size_t> latency_slot(n, 0);
  for (size_t i = in.burst_records; i < n; ++i) {
    if (setup.ref->per_record[i] == 0) continue;
    latency_slot[i] = latency_ms.size();
    latency_ms.push_back(static_cast<double>(kDrainTimeoutNs) / 1e6);
  }
  uint64_t duplicates = 0;
  for (const Received& r : got) {
    if (r.index >= n || hashes[r.index] != 0) {
      ++duplicates;
      continue;
    }
    hashes[r.index] = NotificationHash(r.index, r.counts);
    for (const auto& c : r.counts)
      if (c.first < fired.size()) fired[c.first] = 1;
    if (r.index >= in.burst_records && setup.ref->per_record[r.index] != 0) {
      const int64_t due = start + static_cast<int64_t>(
                                      static_cast<double>(r.index - in.burst_records) *
                                      interval_ns);
      latency_ms[latency_slot[r.index]] = static_cast<double>(r.at_ns - due) / 1e6;
    }
  }
  ledger.attempted += n + in.patterns.size();
  const uint64_t missing = CheckNotifications(setup, hashes, fired, ledger);
  ledger.Fail("notification duplicated or out of range", duplicates);
  ledger.Fail("notification shed", st.notifications_shed);
  // After Drain nothing is queued: produced == delivered + shed + 0, and
  // every delivered frame reached the subscriber.
  if (st.notifications_produced != st.notifications_delivered + st.notifications_shed ||
      st.notifications_delivered != got.size()) {
    ledger.Fail("server accounting: produced != delivered + shed + queued");
  }
  if (st.records_applied != n) ledger.Fail("server applied a different record count");

  const double burst_s =
      std::accumulate(burst_us.begin(), burst_us.end(), 0.0) / 1e6;
  const double setup_s =
      std::accumulate(setup_us.begin(), setup_us.end(), 0.0) / 1e6;
  const size_t nlat = latency_ms.size();
  cy.Add("records_per_s", "1/s", Fold::kMedian,
         static_cast<double>(in.burst_records) / burst_s, in.burst_records);
  // Latencies, round trips and set-up wait on the server's timers (window
  // fill, the apply thread's control-op tick), so their cost per item
  // depends on the timer's phase, not only on the work: the per-cycle
  // values are steady and their median across cycles is reported.
  cy.Add("notify_p50_ms", "ms", Fold::kMedian, Quantile(latency_ms, 0.5), nlat);
  cy.Add("notify_p99_ms", "ms", Fold::kMedian, Quantile(latency_ms, 0.99), nlat);
  cy.Add("add_query_p50_ms", "ms", Fold::kMedian, Quantile(sub_ms, 0.5), sub_ms.size());
  cy.Add("add_query_p95_ms", "ms", Fold::kMedian, Quantile(sub_ms, 0.95), sub_ms.size());
  cy.Add("setup_s", "s", Fold::kMedian, setup_s, setup_us.size());
  cy.Add("engine_mb", "MB", Fold::kMedian,
         static_cast<double>(heap_after - std::min(heap_after, heap_before)) / 1e6);
  cy.KeepBest("burst_us", burst_us);
  cy.Add("notifications", "count", Fold::kExact, static_cast<double>(got.size()));
  cy.Add("server.notifications_missing", "count", Fold::kExact, static_cast<double>(missing));
  cy.Add("server.notifications_shed", "count", Fold::kExact,
         static_cast<double>(st.notifications_shed));
  cy.Add("server.gen_lag_max_ms", "ms", Fold::kMedian, static_cast<double>(lag_max) / 1e6);

  if (tr == nullptr) return;
  cy.Add("server.stream_edges_p50_us", "us", Fold::kDuration, Quantile(stream_us, 0.5),
         stream_us.size());
  cy.Add("server.apply_wait_ms", "ms", Fold::kDuration, wait_ms);
  cy.Add("server.records_per_window", "count", Fold::kMedian,
         st.windows_finalized == 0 ? 0.0
                                   : static_cast<double>(st.records_applied) /
                                         static_cast<double>(st.windows_finalized));
}

void ReportLoopbackBestOf(const Inputs& in, double clock, Cycles& cy) {
  if (!cy.Has("records_per_s")) return;
  const std::vector<double>& burst_us = cy.Best("burst_us");
  const double rate = static_cast<double>(in.burst_records) /
                      (std::accumulate(burst_us.begin(), burst_us.end(), 0.0) / 1e6);
  cy.SetBestOf("records_per_s", rate / clock, rate);
}

}  // namespace perfbench

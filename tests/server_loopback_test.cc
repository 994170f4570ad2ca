#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/driver.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "server/client.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"
#include "time/windowed_stream.h"
#include "workload/snb.h"

namespace gstream {
namespace server {
namespace {

/// Loopback end-to-end tests: a real TCP server + the client library on
/// 127.0.0.1. The core assertion is oracle equality — the notification
/// sequence pushed through the socket stack must be byte-for-byte the
/// emission sequence of a plain RunStream over the same updates and queries
/// (engines guarantee windowing-independence, so the server's batching can
/// never change what is notified). The rest covers the robustness machinery:
/// slow-client policies, idle disconnects, bad-pattern acks, log-gap resume.
/// ASan/TSan run this file (`sanitizer` label).

/// Hand-written patterns over the SNB label vocabulary (text is what goes
/// over the wire; the server parses against its own interner).
const char* kPatterns[] = {
    "(?a)-[knows]->(?b); (?b)-[knows]->(?c)",
    "(?p)-[posted]->(?m); (?m)-[hasTag]->(?t)",
    "(?a)-[likes]->(?m)",
};
constexpr size_t kNumPatterns = sizeof(kPatterns) / sizeof(kPatterns[0]);

workload::Workload MakeWorkload(size_t updates = 600) {
  workload::SnbConfig cfg;
  cfg.num_updates = updates;
  cfg.seed = 7;
  cfg.num_places = 8;
  cfg.num_tags = 8;
  return workload::GenerateSnb(cfg);
}

std::vector<std::string> DictOf(const StringInterner& interner) {
  std::vector<std::string> dict;
  dict.reserve(interner.size());
  for (uint32_t id = 0; id < interner.size(); ++id)
    dict.push_back(interner.Lookup(id));
  return dict;
}

/// record index -> (sub_id/qid, count) ascending; only non-empty updates.
using NotifySeq = std::map<uint64_t, std::vector<std::pair<uint32_t, uint64_t>>>;

/// The oracle: RunStream over the same engine kind + queries, capturing the
/// exact emission sequence through the accumulator sink.
NotifySeq OracleSequence(EngineKind kind, const workload::Workload& w,
                         size_t num_patterns = kNumPatterns) {
  auto engine = CreateEngine(kind);
  for (uint32_t i = 0; i < num_patterns; ++i) {
    ParseResult pr = ParsePattern(kPatterns[i], *w.interner);
    EXPECT_TRUE(pr.ok) << pr.error;
    engine->AddQuery(i, pr.pattern);
  }
  NotifySeq seq;
  RunStream(*engine, w.stream, {},
            [&seq](uint64_t index, const UpdateResult& r) {
              if (r.per_query.empty()) return;
              auto& counts = seq[index];
              for (const auto& [qid, n] : r.per_query)
                counts.emplace_back(static_cast<uint32_t>(qid), n);
            });
  return seq;
}

/// Streams the workload through a client and collects the pushed sequence.
/// At-least-once delivery across reconnects: re-deliveries must agree.
struct Collector {
  std::mutex mu;
  NotifySeq seq;

  void Bind(Client& client) {
    client.OnNotify([this](const NotifyMsg& m) {
      std::lock_guard<std::mutex> lock(mu);
      auto it = seq.find(m.record_index);
      if (it != seq.end()) {
        EXPECT_EQ(it->second, m.counts)
            << "re-delivered notification diverged at " << m.record_index;
        return;
      }
      seq[m.record_index] = m.counts;
    });
  }

  NotifySeq Take() {
    std::lock_guard<std::mutex> lock(mu);
    return seq;
  }
};

ServerOptions FastServerOptions() {
  ServerOptions opts;
  opts.port = 0;
  opts.batch_window = 16;
  opts.window_flush_millis = 5;
  opts.heartbeat_millis = 50;  // progress acks flow promptly
  return opts;
}

ClientOptions ClientOptionsFor(const Server& server,
                               const std::string& name = "c1") {
  ClientOptions opts;
  opts.port = server.port();
  opts.name = name;
  opts.heartbeat_millis = 50;
  opts.call_timeout_millis = 30000;
  return opts;
}

void SubscribeAll(Client& client, size_t num_patterns = kNumPatterns) {
  for (uint32_t i = 0; i < num_patterns; ++i) {
    SubAckMsg ack;
    std::string err;
    ASSERT_TRUE(client.Subscribe(i, kPatterns[i], &ack, &err)) << err;
    ASSERT_NE(ack.status, static_cast<uint8_t>(SubStatus::kError))
        << ack.message;
    // Single-client subscribe order pins qid == sub_id, which is what makes
    // the oracle comparison line up without a mapping step.
    ASSERT_EQ(ack.qid, i);
  }
}

TEST(ServerLoopback, NotificationsMatchRunStreamOracle) {
  const workload::Workload w = MakeWorkload(600);
  Server server(FastServerOptions());
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  Client client(ClientOptionsFor(server));
  Collector collector;
  collector.Bind(client);
  ASSERT_TRUE(client.Connect(&err)) << err;
  SubscribeAll(client);
  client.SetDictionary(DictOf(*w.interner));
  ASSERT_TRUE(client.StreamEdges(w.stream.updates(), &err)) << err;
  ASSERT_TRUE(client.WaitApplied(w.stream.size(), &err)) << err;
  client.Close();
  server.Drain();

  const NotifySeq oracle = OracleSequence(EngineKind::kTricPlus, w);
  const NotifySeq got = collector.Take();
  EXPECT_FALSE(oracle.empty()) << "workload produced no matches at all";
  EXPECT_EQ(got, oracle);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.records_applied, w.stream.size());
  EXPECT_EQ(stats.notifications_shed, 0u);
  EXPECT_EQ(stats.notifications_produced, stats.notifications_delivered);
}

TEST(ServerLoopback, WindowedServerMatchesWindowedDriverOracle) {
  // The server splices each record's due expiry deletions into the window it
  // applies; RunWindowedStream materializes the same deletions as explicit
  // stream events. Event time steps by 10 every 20 records against a width
  // of 100 and windows of 16 records, so whole ticks expire at once, at
  // positions that fall both at window starts and mid-window.
  workload::Workload w = MakeWorkload(900);
  std::vector<StreamEvent> events;
  for (size_t i = 0; i < w.stream.size(); ++i) {
    EdgeUpdate u = w.stream[i];
    u.ts = (i / 20) * 10 + (i % 20 == 19 ? 25 : 0);
    events.push_back(StreamEvent::Update(u));
  }
  std::vector<EdgeUpdate> records;
  for (const StreamEvent& ev : events) records.push_back(ev.update);
  temporal::WindowConfig window;
  window.policy = temporal::WindowPolicy::kTime;
  window.width = 100;

  ServerOptions opts = FastServerOptions();
  opts.window = window;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;
  Client client(ClientOptionsFor(server));
  Collector collector;
  collector.Bind(client);
  ASSERT_TRUE(client.Connect(&err)) << err;
  SubscribeAll(client);
  client.SetDictionary(DictOf(*w.interner));
  ASSERT_TRUE(client.StreamEdges(records, &err)) << err;
  ASSERT_TRUE(client.WaitApplied(records.size(), &err)) << err;
  client.Close();
  server.Drain();

  // The oracle's sink counts the spliced deletions among its indexes; the
  // server's notifications count records only. Map one onto the other.
  const temporal::ExpiryOracle expanded =
      temporal::MaterializeExpiryOracle(events, window);
  std::vector<int64_t> record_of;
  int64_t next_record = 0;
  for (uint8_t synthetic : expanded.synthetic)
    record_of.push_back(synthetic != 0 ? -1 : next_record++);
  ASSERT_EQ(static_cast<size_t>(next_record), records.size());

  auto engine = CreateEngine(EngineKind::kTricPlus);
  for (uint32_t i = 0; i < kNumPatterns; ++i)
    engine->AddQuery(i, ParsePattern(kPatterns[i], *w.interner).pattern);
  NotifySeq oracle;
  const temporal::WindowedRunStats want = temporal::RunWindowedStream(
      *engine, events, window, {},
      [&](uint64_t index, const UpdateResult& r) {
        if (r.per_query.empty()) return;
        ASSERT_GE(record_of[index], 0) << "an expiry deletion notified";
        auto& counts = oracle[static_cast<uint64_t>(record_of[index])];
        for (const auto& [qid, n] : r.per_query)
          counts.emplace_back(static_cast<uint32_t>(qid), n);
      });
  ASSERT_GT(want.expired_edges, 0u);
  ASSERT_GT(want.expiry_batches, 1u);
  ASSERT_GT(want.live_edges, 0u);

  EXPECT_FALSE(oracle.empty()) << "workload produced no matches at all";
  EXPECT_EQ(collector.Take(), oracle);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.records_applied, records.size());
  EXPECT_EQ(stats.expired_edges, want.expired_edges);
  EXPECT_EQ(stats.expiry_batches, want.expiry_batches);
  EXPECT_EQ(stats.live_edges, want.live_edges);
}

/// Raw-socket helper: handshake as `name`, optionally subscribing to the
/// notification firehose, then leave the socket unread (a slow consumer).
int RawHandshake(int port, const std::string& name, bool subscribe,
                 uint64_t resume_notify, HelloAckMsg* ack_out,
                 int rcvbuf_bytes = 0) {
  std::string err;
  const int fd = ConnectTcp("127.0.0.1", port, 2000, &err, rcvbuf_bytes);
  EXPECT_GE(fd, 0) << err;
  if (fd < 0) return -1;
  HelloMsg hello;
  hello.name = name;
  hello.resume_notify = resume_notify;
  std::vector<uint8_t> frame = EncodeHello(hello);
  EXPECT_TRUE(SendAll(fd, frame.data(), frame.size()));
  Frame f;
  EXPECT_EQ(ReadFrame(fd, 5000, f, &err), ReadStatus::kOk) << err;
  EXPECT_EQ(f.type, FrameType::kHelloAck);
  if (ack_out != nullptr) {
    EXPECT_TRUE(DecodeHelloAck(f.payload, *ack_out));
  }
  if (subscribe) {
    SubscribeMsg sm;
    sm.sub_id = 100;
    sm.pattern = "(?a)-[knows]->(?b)";  // fires on every knows edge
    frame = EncodeSubscribe(sm);
    EXPECT_TRUE(SendAll(fd, frame.data(), frame.size()));
    EXPECT_EQ(ReadFrame(fd, 5000, f, &err), ReadStatus::kOk) << err;
    EXPECT_EQ(f.type, FrameType::kSubAck);
  }
  return fd;
}

/// Drives the shed/disconnect slow-client policies: a subscriber that stops
/// reading while a producer streams enough matches to overflow its tiny
/// outbound queue.
void RunSlowClientScenario(SlowClientPolicy policy, ServerStats* stats_out,
                           uint64_t* produced_minus_queue) {
  const workload::Workload w = MakeWorkload(900);
  ServerOptions opts = FastServerOptions();
  opts.slow_client = policy;
  opts.outbound_capacity = 2;
  // Tiny kernel buffers on both sides of the slow socket: without them the
  // ~hundreds of KB the kernel buffers absorb every notification and the
  // outbound queue never overflows — whether the policy fired would be a
  // scheduling coin flip. (Both values are clamped up to the kernel minimum;
  // skb truesize overhead means only a handful of small frames fit.)
  opts.sndbuf_bytes = 4096;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  const int slow_fd =
      RawHandshake(server.port(), "slow-sub", /*subscribe=*/true, kNoOffset,
                   nullptr, /*rcvbuf_bytes=*/4096);
  ASSERT_GE(slow_fd, 0);
  // Never read again: the subscriber's queue backs up at capacity 2.

  Client producer(ClientOptionsFor(server, "producer"));
  ASSERT_TRUE(producer.Connect(&err)) << err;
  producer.SetDictionary(DictOf(*w.interner));
  ASSERT_TRUE(producer.StreamEdges(w.stream.updates(), &err)) << err;
  ASSERT_TRUE(producer.WaitApplied(w.stream.size(), &err)) << err;
  producer.Close();

  // Unblock any writer stuck on the slow socket, then drain.
  ShutdownFd(slow_fd);
  server.Drain();
  CloseFd(slow_fd);
  *stats_out = server.stats();
  *produced_minus_queue =
      stats_out->notifications_delivered + stats_out->notifications_shed;
}

TEST(ServerLoopback, SlowClientShedOldestCountsEveryLoss) {
  ServerStats stats;
  uint64_t accounted = 0;
  RunSlowClientScenario(SlowClientPolicy::kShedOldest, &stats, &accounted);
  EXPECT_GT(stats.notifications_produced, 0u);
  EXPECT_GT(stats.notifications_shed, 0u) << "queue capacity 2 never shed?";
  // The reconciliation invariant: every produced notification is either
  // delivered or counted shed once the queues are gone.
  EXPECT_EQ(stats.notifications_produced, accounted);
}

TEST(ServerLoopback, SlowClientDisconnectPolicyFires) {
  ServerStats stats;
  uint64_t accounted = 0;
  RunSlowClientScenario(SlowClientPolicy::kDisconnect, &stats, &accounted);
  EXPECT_GE(stats.slow_disconnects, 1u);
  EXPECT_EQ(stats.notifications_produced, accounted);
}

TEST(ServerLoopback, IdleConnectionIsDisconnected) {
  ServerOptions opts = FastServerOptions();
  opts.heartbeat_millis = 50;
  opts.idle_timeout_millis = 200;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  // Handshake, then total silence — no heartbeats. The server must evict us.
  const int fd = RawHandshake(server.port(), "mute", /*subscribe=*/false,
                              kNoOffset, nullptr);
  ASSERT_GE(fd, 0);
  bool saw_idle_error = false;
  for (int i = 0; i < 50; ++i) {
    Frame f;
    const ReadStatus st = ReadFrame(fd, 200, f, &err);
    if (st == ReadStatus::kClosed || st == ReadStatus::kError) break;
    if (st == ReadStatus::kOk && f.type == FrameType::kError) {
      ErrorMsg em;
      ASSERT_TRUE(DecodeError(f.payload, em));
      EXPECT_EQ(em.code, static_cast<uint16_t>(ErrorCode::kIdleTimeout));
      saw_idle_error = true;
    }
  }
  CloseFd(fd);
  EXPECT_TRUE(saw_idle_error);
  server.Drain();
  EXPECT_GE(server.stats().idle_disconnects, 1u);
}

TEST(ServerLoopback, HeartbeatFasterThanApplyTickNeverPrecedesHelloAck) {
  // The apply thread queues HelloAck when it next runs the control ops; a
  // 1 ms heartbeat can fire before that. The client's handshake must still
  // see HelloAck first, every time.
  ServerOptions opts = FastServerOptions();
  opts.heartbeat_millis = 1;
  opts.window_flush_millis = 20;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;
  for (int i = 0; i < 20; ++i) {
    Client client(ClientOptionsFor(server, "hb" + std::to_string(i)));
    ASSERT_TRUE(client.Connect(&err)) << "attempt " << i << ": " << err;
    client.Close();
  }
  server.Drain();
}

TEST(ServerLoopback, SubscribeRoundTripDoesNotWaitForTheApplyTick) {
  // Control ops (attach, Subscribe, Unsubscribe) wake the apply thread. If
  // they waited for its next poll tick instead — min(window_flush_millis,
  // 20) = 20 ms here — the median Subscribe -> SubAck round trip would sit
  // near half a tick; the engine work behind it is microseconds.
  ServerOptions opts = FastServerOptions();
  opts.window_flush_millis = 20;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;
  Client client(ClientOptionsFor(server));
  ASSERT_TRUE(client.Connect(&err)) << err;

  std::vector<double> round_trip_ms;
  for (uint32_t i = 0; i < 21; ++i) {
    SubAckMsg ack;
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.Subscribe(i, kPatterns[i % kNumPatterns], &ack, &err)) << err;
    round_trip_ms.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    ASSERT_EQ(ack.status, static_cast<uint8_t>(SubStatus::kNew)) << ack.message;
  }
  std::nth_element(round_trip_ms.begin(), round_trip_ms.begin() + 10,
                   round_trip_ms.end());
  EXPECT_LT(round_trip_ms[10], 5.0) << "median Subscribe round trip (ms)";
  client.Close();
  server.Drain();
}

TEST(ServerLoopback, BadPatternAcksErrorAndConnectionSurvives) {
  Server server(FastServerOptions());
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  Client client(ClientOptionsFor(server));
  ASSERT_TRUE(client.Connect(&err)) << err;

  SubAckMsg ack;
  ASSERT_TRUE(client.Subscribe(0, "this is not a pattern", &ack, &err)) << err;
  EXPECT_EQ(ack.status, static_cast<uint8_t>(SubStatus::kError));
  EXPECT_FALSE(ack.message.empty());

  // Same connection keeps working: a valid pattern subscribes normally.
  ASSERT_TRUE(client.Subscribe(1, kPatterns[0], &ack, &err)) << err;
  EXPECT_EQ(ack.status, static_cast<uint8_t>(SubStatus::kNew));
  EXPECT_EQ(client.stats().reconnects, 0u);
  client.Close();
  server.Drain();
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST(ServerLoopback, ResumePastTrimmedLogReportsGap) {
  const workload::Workload w = MakeWorkload(900);
  ServerOptions opts = FastServerOptions();
  opts.notify_log_capacity = 8;  // force the log to trim
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  Client producer(ClientOptionsFor(server, "producer"));
  ASSERT_TRUE(producer.Connect(&err)) << err;
  SubscribeAll(producer);
  producer.SetDictionary(DictOf(*w.interner));
  ASSERT_TRUE(producer.StreamEdges(w.stream.updates(), &err)) << err;
  ASSERT_TRUE(producer.WaitApplied(w.stream.size(), &err)) << err;
  const uint64_t notifies = producer.stats().notifies;
  ASSERT_GT(notifies, 8u) << "need more matches than the log holds";
  producer.Close();

  // A subscriber asking for "everything from record 0" cannot be served
  // from an 8-entry log: the ack must say kGap and point at the log start.
  HelloAckMsg ack;
  const int fd = RawHandshake(server.port(), "late-sub", /*subscribe=*/false,
                              /*resume_notify=*/0, &ack);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(ack.resume_status, static_cast<uint8_t>(ResumeStatus::kGap));
  EXPECT_GT(ack.notify_log_start, 0u);
  CloseFd(fd);
  server.Drain();
}

TEST(ServerLoopback, DrainAnnouncesBoundaryToClients) {
  const workload::Workload w = MakeWorkload(300);
  Server server(FastServerOptions());
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  Client client(ClientOptionsFor(server));
  ASSERT_TRUE(client.Connect(&err)) << err;
  SubscribeAll(client);
  client.SetDictionary(DictOf(*w.interner));
  ASSERT_TRUE(client.StreamEdges(w.stream.updates(), &err)) << err;
  ASSERT_TRUE(client.WaitApplied(w.stream.size(), &err)) << err;

  server.Drain();
  // The Drain frame must reach the attached client before its socket closes.
  for (int i = 0; i < 100 && !client.drained(); ++i) ::usleep(20 * 1000);
  EXPECT_TRUE(client.drained());
  client.Close();
}

}  // namespace
}  // namespace server
}  // namespace gstream

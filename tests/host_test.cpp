// Integration tests for the sharded host runtime (src/host): many CO
// entities in one process, split across shard threads, real loopback UDP
// between the shards (one socket each) and in-process delivery within one,
// loss injected at the sender. Delivery logs are checked against the
// happened-before oracle the simulator and the single-entity host tests
// (udp_transport_test) use, and the shared Tracer must end up with one
// stream per shard thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "src/co/wire.h"
#include "src/host/host.h"
#include "src/obs/trace/tracer.h"
#include "tests/co_service_oracle.h"

namespace co::host {
namespace {

using namespace std::chrono_literals;

/// One Host with every entity local, checked by one CoServiceOracle.
class HostHarness {
 public:
  HostHarness(std::size_t n, std::size_t shards, double send_loss,
              obs::trace::Tracer* tracer,
              const proto::CoConfig& proto = oracle_test_config())
      : oracle_(n) {
    HostBuilder builder(n);
    builder.proto(proto)
        .shards(shards)
        .send_loss(send_loss, /*seed=*/1000)
        .tracer(tracer)
        .observer(&oracle_)
        .deliver(oracle_.deliver_fn());
    for (std::size_t i = 0; i < n; ++i)
      builder.entity(static_cast<EntityId>(i));
    host_ = builder.build();
  }

  Host& host() { return *host_; }

  void submit(EntityId at, std::size_t payload_bytes = 32) {
    ASSERT_EQ(host_->submit(at, oracle_.next_payload(at, payload_bytes)),
              SubmitResult::kAccepted);
  }

  CoServiceOracle& oracle() { return oracle_; }

 private:
  CoServiceOracle oracle_;
  std::unique_ptr<Host> host_;
};

// The tentpole scenario: 2 shards x 8 entities under injected send loss.
// Every entity must deliver everything in CO order, the host must go
// quiescent across shards once traffic stops, and the shared tracer must
// hold a stream per shard thread.
TEST(HostRuntime, CoServiceAcrossShardsUnderLoss) {
  constexpr std::size_t kN = 8;
  constexpr std::size_t kShards = 2;
  constexpr int kRounds = 5;

  obs::trace::Tracer tracer;
  HostHarness h(kN, kShards, /*send_loss=*/0.10, &tracer);
  ASSERT_EQ(h.host().shard_count(), kShards);
  ASSERT_EQ(h.host().local_entity_count(), kN);
  h.host().start();

  for (int round = 0; round < kRounds; ++round) {
    for (EntityId e = 0; e < static_cast<EntityId>(kN); ++e) h.submit(e);
    std::this_thread::sleep_for(2ms);
  }

  ASSERT_TRUE(h.oracle().await_deliveries(kRounds * kN, 40'000ms));
  // Cross-shard quiescence: nothing owed or buffered anywhere once every
  // delivery landed and the retransmission machinery drained. The budget is
  // sized for sanitizer builds (TSan runs 10-20x slower and the post-loss
  // retransmit drain is timer-paced); unsanitized runs return in ~1s.
  const bool quiet = h.host().await_quiescent(60'000ms);
  h.host().stop();
  EXPECT_EQ(h.host().state(), Host::State::kStopped);
  if (!quiet) {
    // Post-stop the cores are frozen: dump who is still un-quiescent and
    // why-ish (counters), so a CI timeout is diagnosable from the log.
    for (std::size_t s = 0; s < h.host().shard_count(); ++s) {
      for (std::size_t e = 0; e < h.host().shard(s).entity_count(); ++e) {
        const auto& rt = h.host().shard(s).entity(e);
        const auto st = rt.core().stats().snapshot();
        std::cerr << "E" << rt.id() << " quiescent=" << rt.core().quiescent()
                  << " app_q=" << rt.core().app_queue_depth()
                  << " buffered=" << rt.core().undelivered_buffered()
                  << " pending_subs=" << rt.pending_submissions()
                  << " delivered=" << st.delivered_to_app
                  << " acked=" << st.acknowledged
                  << " rets=" << st.ret_pdus_sent
                  << " retries=" << st.ret_retries
                  << " probes=" << st.heartbeats_sent << "\n";
      }
    }
  }
  EXPECT_TRUE(quiet);

  EXPECT_EQ(h.oracle().check_co_service(), std::nullopt);

  const WireStats total = h.host().total_wire_stats();
  EXPECT_GT(total.datagrams_dropped_injected, 0u);  // loss actually injected
  EXPECT_EQ(total.decode_errors, 0u);
  EXPECT_EQ(total.submit_rejected, 0u);
  // Only frames between the shards can be lost, and recovery ran.
  std::uint64_t f1 = 0;
  std::uint64_t retransmissions = 0;
  for (EntityId e = 0; e < static_cast<EntityId>(kN); ++e) {
    f1 += h.host().protocol_stats(e).f1_detections;
    retransmissions += h.host().protocol_stats(e).retransmissions_sent;
  }
  EXPECT_GT(f1, 0u);
  EXPECT_GT(retransmissions, 0u);

  // The shared tracer collected one lock-free stream per shard thread.
  EXPECT_GE(tracer.stream_count(), kShards);
  std::set<std::uint32_t> streams;
  for (const auto& rec : tracer.snapshot()) streams.insert(rec.stream);
  EXPECT_GE(streams.size(), kShards);
}

TEST(HostRuntime, EntitiesSpreadRoundRobinAcrossShards) {
  HostHarness h(8, 3, 0.0, nullptr);
  EXPECT_EQ(h.host().shard_count(), 3u);
  // 8 entities over 3 shards: 3 + 3 + 2 in declaration order.
  EXPECT_EQ(h.host().shard(0).entity_count(), 3u);
  EXPECT_EQ(h.host().shard(1).entity_count(), 3u);
  EXPECT_EQ(h.host().shard(2).entity_count(), 2u);
}

TEST(HostRuntime, SetPeerAfterStartThrows) {
  auto host = HostBuilder(2)
                  .entity(0)
                  .entity(1)
                  .deliver([](EntityId, EntityId,
                              const std::vector<std::uint8_t>&) {})
                  .build();
  EXPECT_EQ(host->state(), Host::State::kBound);
  host->start();
  EXPECT_EQ(host->state(), Host::State::kRunning);
  EXPECT_THROW(host->set_peer(1, transport::UdpEndpoint::loopback(9)),
               std::logic_error);
  host->stop();
}

TEST(HostRuntime, SubmitBackpressureCountsRejections) {
  // Never started: nothing drains the ring, so its capacity is the bound.
  auto host = HostBuilder(2)
                  .entity(0)
                  .entity(1)
                  .deliver([](EntityId, EntityId,
                              const std::vector<std::uint8_t>&) {})
                  .build();
  for (std::size_t i = 0; i < kSubmitQueueCapacity; ++i)
    ASSERT_EQ(host->submit(0, {1, 2, 3}), SubmitResult::kAccepted);
  EXPECT_EQ(host->submit(0, {1, 2, 3}), SubmitResult::kQueueFull);
  EXPECT_EQ(host->submit(0, {1, 2, 3}), SubmitResult::kQueueFull);
  EXPECT_EQ(host->shard(0).entity(0).submit_rejected(), 2u);
  // The other entity's ring is untouched.
  EXPECT_EQ(host->submit(1, {9}), SubmitResult::kAccepted);
  EXPECT_EQ(host->shard(0).entity(1).submit_rejected(), 0u);
  EXPECT_EQ(host->total_wire_stats().submit_rejected, 2u);
}

TEST(HostRuntime, SubmitAfterStopReturnsStopped) {
  auto host = HostBuilder(2)
                  .entity(0)
                  .entity(1)
                  .deliver([](EntityId, EntityId,
                              const std::vector<std::uint8_t>&) {})
                  .build();
  host->start();
  host->stop();
  EXPECT_EQ(host->submit(0, {1}), SubmitResult::kStopped);
}

TEST(HostRuntime, BuilderRejectsDuplicateAndOutOfRangeEntities) {
  {
    HostBuilder b(2);
    b.entity(0).entity(0).deliver(
        [](EntityId, EntityId, const std::vector<std::uint8_t>&) {});
    EXPECT_THROW(b.build(), std::logic_error);
  }
  {
    HostBuilder b(2);
    b.entity(5).deliver(
        [](EntityId, EntityId, const std::vector<std::uint8_t>&) {});
    EXPECT_THROW(b.build(), std::logic_error);
  }
  {
    HostBuilder b(2);  // no entities at all
    EXPECT_THROW(b.build(), std::logic_error);
  }
}

// Regression: Shard::poll_once used to cast the ns-until-deadline straight
// to int milliseconds. A timer armed days out (e.g. a huge retransmit
// timeout) overflowed the cast negative, and poll(2) treats a negative
// timeout as infinite-or-zero depending on sign handling — in practice the
// loop busy-spun at 100% CPU. The arithmetic now lives in
// clamped_poll_wait_ns, 64-bit and saturating end to end. The shard sleeps
// in ppoll(2) for exactly that many nanoseconds: rounding up to whole
// milliseconds fired a timer due in 300 us (or 1 us) a full 1 ms late.
TEST(HostRuntime, ClampedPollWaitMsNeverWrapsNegative) {
  const time::Tick now = 0;
  // A deadline 30 days out: > INT_MAX milliseconds away.
  const time::Deadline far = 30ll * 24 * 3600 * time::kSecond;
  EXPECT_EQ(clamped_poll_wait_ns(5, now, far), 5 * time::kMillisecond);
  EXPECT_GE(clamped_poll_wait_ns(INT_MAX, now, far), 0);  // the old wrap
  // Unbounded cap with a far deadline waits for the deadline, never
  // negative.
  EXPECT_EQ(clamped_poll_wait_ns(INT64_MAX, now, far), far);
  // A due (or past-due) deadline waits 0.
  EXPECT_EQ(clamped_poll_wait_ns(5000, now, now), 0);
  EXPECT_EQ(clamped_poll_wait_ns(5000, 10 * time::kSecond, now), 0);
  // No timer pending: the cap rules (and huge caps saturate, negatives
  // floor).
  EXPECT_EQ(clamped_poll_wait_ns(250, now, std::nullopt),
            250 * time::kMillisecond);
  EXPECT_EQ(clamped_poll_wait_ns(INT64_MAX, now, std::nullopt), INT64_MAX);
  EXPECT_EQ(clamped_poll_wait_ns(-3, now, std::nullopt), 0);
  // Sub-millisecond deadlines: exact nanoseconds, no rounding.
  EXPECT_EQ(clamped_poll_wait_ns(5000, now, now + time::kMicrosecond),
            time::kMicrosecond);
  EXPECT_EQ(clamped_poll_wait_ns(5000, now, now + 300 * time::kMicrosecond),
            300 * time::kMicrosecond);
}

// Satellite: a datagram larger than a RecvBatch slot must be dropped and
// counted (truncated_datagrams + decode_errors), never handed to the
// decoder as a silently-clipped prefix — and the entity must keep working.
TEST(HostRuntime, OversizedDatagramIsCountedNotMisparsed) {
  HostHarness h(2, 2, 0.0, nullptr);  // E0 and E1 on shards of their own
  // Lob a datagram bigger than a receive slot from a raw socket.
  h.host().start();

  transport::UdpSocket attacker;
  attacker.bind_loopback(0);
  const std::vector<std::uint8_t> oversized(2 * kRecvSlotBytes, 0xEE);
  ASSERT_TRUE(attacker.send_to(h.host().endpoint(0), oversized));

  // Loopback send_to is synchronous: the junk already sits in entity 0's
  // receive buffer, ahead of all the protocol traffic the submits below
  // provoke — by the time both broadcasts delivered everywhere, the shard
  // has long since ingested (and discarded) it. WireStats are plain
  // counters owned by the shard thread, so assert only after stop().
  h.submit(0);
  h.submit(1);
  ASSERT_TRUE(h.oracle().await_deliveries(2, 10'000ms));
  h.host().stop();

  const WireStats s = h.host().shard(0).wire_stats();
  EXPECT_EQ(s.truncated_datagrams, 1u);
  EXPECT_GE(s.decode_errors, 1u);  // the truncated one counts as loss
  EXPECT_EQ(h.host().shard(1).wire_stats().truncated_datagrams, 0u);
  EXPECT_EQ(h.oracle().check_co_service(), std::nullopt);
}

// Satellite: submissions racing Host::stop() are never silently lost — a
// submit that returned kAccepted is processed by the shutdown drain, and
// everything else was refused loudly (kQueueFull/kStopped). Before the
// drain existed, accepted submissions could die unprocessed in the rings.
TEST(HostRuntime, StopNeverSilentlyDropsAcceptedSubmissions) {
  constexpr std::size_t kProducers = 3;  // one per entity: SPSC contract
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> told_stopped{0};
    std::atomic<bool> halt{false};
    auto host =
        HostBuilder(kProducers)
            .shards(2)
            .deliver([](EntityId, EntityId,
                        const std::vector<std::uint8_t>&) {})
            .entity(0)
            .entity(1)
            .entity(2)
            .build();
    host->start();

    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        const auto id = static_cast<EntityId>(p);
        while (!halt.load(std::memory_order_relaxed)) {
          const auto r = host->submit(id, {1, 2, 3});
          if (r == SubmitResult::kAccepted) {
            accepted.fetch_add(1, std::memory_order_relaxed);
          } else if (r == SubmitResult::kStopped) {
            told_stopped.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      });
    }
    // Let the producers race the stop itself, not just the steady state —
    // once they run: on a loaded machine a few milliseconds may pass
    // before any producer thread is first scheduled.
    const auto started = std::chrono::steady_clock::now();
    while (accepted.load() == 0 &&
           std::chrono::steady_clock::now() - started < 10s)
      std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(2 + round));
    host->stop();
    halt.store(true, std::memory_order_relaxed);
    for (auto& t : producers) t.join();

    // The one-sided guarantee: every kAccepted submission reached the
    // core (transmitted as a data PDU or still flow-blocked in its app
    // queue). A push that raced the drain and was answered kStopped may
    // legitimately linger in a ring — the caller was told, so nothing is
    // SILENTLY lost — and each producer stops at its first kStopped, so
    // lingerers are bounded by the kStopped count.
    std::uint64_t processed = 0;
    std::uint64_t still_queued = 0;
    for (std::size_t s = 0; s < host->shard_count(); ++s) {
      for (std::size_t e = 0; e < host->shard(s).entity_count(); ++e) {
        const auto& rt = host->shard(s).entity(e);
        processed += rt.core().stats().snapshot().data_pdus_sent +
                     rt.core().app_queue_depth();
        still_queued += rt.pending_submissions();
      }
    }
    EXPECT_GE(processed, accepted.load()) << "round " << round;
    EXPECT_LE(still_queued, told_stopped.load()) << "round " << round;
    EXPECT_GT(accepted.load(), 0u) << "round " << round;
    // And post-stop submits are refused with the explicit verdict.
    EXPECT_EQ(host->submit(0, {9}), SubmitResult::kStopped);
  }
}

// Tentpole: a submission into an IDLE host (shards asleep in a long poll)
// must be picked up via the doorbell in microseconds, not after the old
// fixed 5 ms tick. Generous bound: scheduler noise on a loaded CI box.
TEST(HostRuntime, DoorbellWakesIdleShardPromptly) {
  std::atomic<int> delivered{0};
  auto host = HostBuilder(2)
                  .entity(0)
                  .entity(1)
                  .deliver([&](EntityId, EntityId,
                               const std::vector<std::uint8_t>&) {
                    delivered.fetch_add(1, std::memory_order_relaxed);
                  })
                  .build();
  host->start();
  // Let both shards reach their idle sleep (spin window expired).
  std::this_thread::sleep_for(50ms);

  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_EQ(host->submit(0, {42}), SubmitResult::kAccepted);
  while (delivered.load(std::memory_order_relaxed) < 2 &&
         std::chrono::steady_clock::now() - t0 < 2s)
    std::this_thread::yield();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(delivered.load(), 2);
  // Well under kIdlePollCap (500 ms) and under the old 5 ms tick even with
  // CI scheduling slop stacked on top.
  EXPECT_LT(elapsed, 100ms);
  host->stop();
}

/// Streaming trace sink tallying the wire_tx records: frames sent, the
/// messages they carried, and the largest frame. Sinks see batches one at
/// a time under the tracer's lock, so plain counters suffice.
class FrameTally final : public obs::trace::TraceSink {
 public:
  void on_records(std::uint16_t, const obs::trace::Record* records,
                  std::size_t count, std::uint64_t) override {
    for (std::size_t i = 0; i < count; ++i) {
      if (records[i].event !=
          static_cast<std::uint16_t>(obs::trace::EventId::kWireTx))
        continue;
      ++frames;
      messages += records[i].seq;
      largest = std::max(largest, records[i].arg);
    }
  }
  std::uint64_t frames = 0;
  std::uint64_t messages = 0;
  std::uint32_t largest = 0;
};

obs::trace::TracerConfig streaming() {
  obs::trace::TracerConfig cfg;
  cfg.overwrite_oldest = false;
  return cfg;
}

// Frames never outgrow kMaxFrameBytes. Each shard's first pass packs
// twelve ~230-byte data PDUs (six from each of its two entities), more
// than one frame holds, so the pass takes several frames, and no receiver
// may see a truncated datagram.
TEST(HostRuntime, FramesFitSmallReceiveSlots) {
  constexpr std::size_t kN = 4;
  constexpr int kRounds = 6;
  FrameTally tally;
  obs::trace::Tracer tracer(streaming(), &tally);
  HostHarness h(kN, 2, /*send_loss=*/0.0, &tracer);
  for (int round = 0; round < kRounds; ++round)
    for (EntityId e = 0; e < static_cast<EntityId>(kN); ++e)
      h.submit(e, /*payload_bytes=*/200);
  h.host().start();
  ASSERT_TRUE(h.oracle().await_deliveries(kRounds * kN, 20'000ms));
  h.host().stop();
  tracer.flush();

  for (std::size_t s = 0; s < h.host().shard_count(); ++s) {
    const WireStats w = h.host().shard(s).wire_stats();
    EXPECT_EQ(w.truncated_datagrams, 0u) << "shard " << s;
    EXPECT_EQ(w.decode_errors, 0u) << "shard " << s;
  }
  EXPECT_LE(tally.largest, kMaxFrameBytes);
  EXPECT_GT(tally.messages, tally.frames);  // some frames held several PDUs
  EXPECT_EQ(h.oracle().check_co_service(), std::nullopt);
}

// Every broadcast leaves in exactly one frame: the wire_tx records'
// message counts add up to the PDUs the cores sent (data + ack-only + RET
// + retransmitted) — including the burst that races stop() and goes out
// from the shutdown drain — so no broadcast is stranded in an unflushed
// frame or sent twice.
TEST(HostRuntime, WireTxCountsEveryBroadcastOnce) {
  constexpr std::size_t kN = 4;
  FrameTally tally;
  obs::trace::Tracer tracer(streaming(), &tally);
  HostHarness h(kN, 2, /*send_loss=*/0.05, &tracer);
  h.host().start();
  for (int round = 0; round < 4; ++round)
    for (EntityId e = 0; e < static_cast<EntityId>(kN); ++e) h.submit(e);
  ASSERT_TRUE(h.oracle().await_deliveries(4 * kN, 40'000ms));
  for (EntityId e = 0; e < static_cast<EntityId>(kN); ++e) h.submit(e);
  h.host().stop();
  tracer.flush();

  std::uint64_t sent = 0;
  for (EntityId e = 0; e < static_cast<EntityId>(kN); ++e) {
    const auto s = h.host().protocol_stats(e);
    sent += s.data_pdus_sent + s.ctrl_pdus_sent + s.ret_pdus_sent +
            s.retransmissions_sent;
  }
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_GE(sent, 5 * kN);
  EXPECT_EQ(tally.messages, sent);
}

/// Counts accept records by (actor, origin). For hosts driven with
/// poll_once() on the test thread, so no lock.
class AcceptTally final : public proto::CoObserver {
 public:
  explicit AcceptTally(std::size_t n) : n_(n), counts_(n * n, 0) {}
  void on_event(const proto::Record& r) override {
    if (static_cast<proto::EventId>(r.event) == proto::EventId::kAccept)
      ++counts_[static_cast<std::size_t>(r.actor) * n_ +
                static_cast<std::size_t>(r.origin)];
  }
  int accepted(EntityId at, EntityId from) const {
    return counts_[static_cast<std::size_t>(at) * n_ +
                   static_cast<std::size_t>(from)];
  }

 private:
  std::size_t n_;
  std::vector<int> counts_;
};

// The shard is the endpoint. A broadcast reaches the other entities of its
// shard in-process and leaves once per destination endpoint; a frame from
// elsewhere reaches every entity of the shard as one datagram.
TEST(HostRuntime, CoLocatedEntitiesShareOneDatagram) {
  constexpr std::size_t kN = 4;
  proto::CoConfig pcfg = oracle_test_config();
  // Timers far out: only the two submits below may send anything.
  pcfg.defer_timeout = 10 * time::kSecond;
  pcfg.retransmit_timeout = 20 * time::kSecond;
  AcceptTally tally(kN);
  auto trio = HostBuilder(kN)
                  .proto(pcfg)
                  .entity(0)
                  .entity(1)
                  .entity(2)
                  .observer(&tally)
                  .build();
  auto solo = HostBuilder(kN).proto(pcfg).entity(3).observer(&tally).build();
  ASSERT_EQ(trio->shard_count(), 1u);
  trio->set_peer(3, solo->endpoint(3));
  for (EntityId e = 0; e < 3; ++e) solo->set_peer(e, trio->endpoint(e));

  // A submit at E0: E1 and E2 take it without any datagram, and it leaves
  // as one datagram, to E3's endpoint.
  ASSERT_EQ(trio->submit(0, {1, 2, 3}), SubmitResult::kAccepted);
  trio->shard(0).poll_once(0ms);
  EXPECT_EQ(trio->total_wire_stats().datagrams_sent, 1u);
  EXPECT_EQ(trio->total_wire_stats().datagrams_received, 0u);
  EXPECT_EQ(tally.accepted(1, 0), 1);
  EXPECT_EQ(tally.accepted(2, 0), 1);

  // E3 reads it and sends a frame of its own. E0, E1 and E2 share one
  // endpoint, so that is one datagram too.
  ASSERT_EQ(solo->submit(3, {4, 5, 6}), SubmitResult::kAccepted);
  solo->shard(0).poll_once(1000ms);
  EXPECT_EQ(solo->total_wire_stats().datagrams_received, 1u);
  EXPECT_EQ(tally.accepted(3, 0), 1);
  EXPECT_EQ(solo->total_wire_stats().datagrams_sent, 1u);

  // The one datagram reaches all three entities.
  trio->shard(0).poll_once(1000ms);
  EXPECT_EQ(trio->total_wire_stats().datagrams_received, 1u);
  for (EntityId e = 0; e < 3; ++e)
    EXPECT_EQ(tally.accepted(e, 3), 1) << "E" << e;
  EXPECT_EQ(trio->total_wire_stats().decode_errors, 0u);
}

/// Socket descriptors this process holds open.
std::size_t open_sockets() {
  std::size_t count = 0;
  for (const auto& fd :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const auto target = std::filesystem::read_symlink(fd.path(), ec);
    count += !ec && target.string().rfind("socket:", 0) == 0;
  }
  return count;
}

// A host binds one socket per shard, and the entities on a shard report
// its endpoint. An explicit endpoint binds the entity's shard; two
// different ones on one shard are refused.
TEST(HostRuntime, OneSocketPerShard) {
  const std::size_t before = open_sockets();
  {
    HostHarness h(8, 3, 0.0, nullptr);
    EXPECT_EQ(open_sockets() - before, h.host().shard_count());
    std::set<std::uint16_t> ports;
    for (std::size_t s = 0; s < h.host().shard_count(); ++s) {
      const Shard& shard = h.host().shard(s);
      ports.insert(shard.endpoint().port);
      for (std::size_t e = 0; e < shard.entity_count(); ++e)
        EXPECT_EQ(h.host().endpoint(shard.entity(e).id()), shard.endpoint())
            << "E" << shard.entity(e).id();
    }
    EXPECT_EQ(ports.size(), h.host().shard_count());
  }

  // Two ports nobody holds once these sockets close.
  transport::UdpEndpoint a, b;
  {
    transport::UdpSocket sa, sb;
    sa.bind_loopback(0);
    sb.bind_loopback(0);
    a = sa.local_endpoint();
    b = sb.local_endpoint();
  }
  auto pinned = HostBuilder(2).entity(0).entity(1, a).build();
  EXPECT_EQ(pinned->endpoint(0), a);
  EXPECT_EQ(pinned->endpoint(1), a);
  pinned.reset();
  HostBuilder clash(2);
  clash.entity(0, a).entity(1, b);
  EXPECT_THROW(clash.build(), std::logic_error);
}

// Emission order across shards. A shard's entities share one frame, filled
// in the order they emitted, so a confirmation of p never reaches the
// other shard before p does. With nothing lost, F(2) — a third party's ACK
// running ahead of our REQ — must never fire, and nothing is
// retransmitted. Per-entity frames flushed in entity order fail this test:
// a peer's confirmation of p can then leave before p.
TEST(HostRuntime, NoFalseF2AcrossTwoShards) {
  constexpr std::size_t kN = 8;
  constexpr std::size_t kBurst = 24;  // three windows per source
  // Timers slower than a pass, even a sanitizer's, so that the settle
  // below finds a pass in which no timer sends.
  proto::CoConfig pcfg = oracle_test_config();
  pcfg.defer_timeout = 50 * time::kMillisecond;
  pcfg.retransmit_timeout = 200 * time::kMillisecond;
  HostHarness h(kN, 2, /*send_loss=*/0.0, nullptr, pcfg);
  ASSERT_EQ(h.host().shard_count(), 2u);
  for (std::size_t round = 0; round < kBurst; ++round)
    for (EntityId e = 0; e < static_cast<EntityId>(kN); ++e) h.submit(e);

  // Drive both shards on this thread, one pass each in turn: every pass
  // reads all the other shard sent before it began.
  Host& host = h.host();
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  const auto all_delivered = [&] {
    for (EntityId e = 0; e < static_cast<EntityId>(kN); ++e)
      if (h.oracle().delivered_count(e) < kBurst * kN) return false;
    return true;
  };
  while (!all_delivered() || !host.quiescent()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    for (std::size_t s = 0; s < 2; ++s) host.shard(s).poll_once(1ms);
  }
  // Settle: once a pass sends nothing, no datagram is in flight.
  for (std::size_t pass = 0;; ++pass) {
    ASSERT_LT(pass, 10'000u);
    Shard& shard = host.shard(pass % 2);
    const std::uint64_t sent = shard.wire_stats().datagrams_sent;
    shard.poll_once(0ms);
    if (shard.wire_stats().datagrams_sent == sent) break;
  }

  // Precondition: the loopback lost nothing, so any F(2) would be false.
  const WireStats w = host.total_wire_stats();
  ASSERT_EQ(w.send_buffer_drops, 0u);
  ASSERT_EQ(w.datagrams_received, w.datagrams_sent);
  for (EntityId e = 0; e < static_cast<EntityId>(kN); ++e) {
    const auto s = host.protocol_stats(e);
    EXPECT_EQ(s.f2_detections, 0u) << "E" << e;
    EXPECT_EQ(s.retransmissions_sent, 0u) << "E" << e;
  }
  EXPECT_EQ(h.oracle().check_co_service(), std::nullopt);
}

// A single submit on a warm host is confirmed by the two rounds of
// ack-only PDUs themselves, not by the defer timer: the entity that
// delivers first still sends the successor its last PDU owes (DESIGN.md
// deviation #9). Without it, every entity but that one waited a whole
// defer_timeout.
TEST(HostRuntime, WarmSingleSubmitsOutrunTheDeferTimer) {
  constexpr std::size_t kN = 8;
  constexpr std::size_t kSubmits = 8;
  proto::CoConfig pcfg = oracle_test_config();
  pcfg.defer_timeout = 200 * time::kMillisecond;
  pcfg.retransmit_timeout = 1000 * time::kMillisecond;
  const auto bound = std::chrono::nanoseconds(pcfg.defer_timeout / 10);
  HostHarness h(kN, 2, /*send_loss=*/0.0, nullptr, pcfg);
  h.host().start();
  // Warm-up: a cold entity has heard from no one since its last send, so
  // the first exchange falls back to the timer.
  h.submit(0);
  ASSERT_TRUE(h.oracle().await_deliveries(1, 30'000ms));

  for (std::size_t k = 0; k < kSubmits; ++k) {
    const auto t0 = std::chrono::steady_clock::now();
    h.submit(static_cast<EntityId>(k % kN));
    ASSERT_TRUE(h.oracle().await_deliveries(k + 2, 30'000ms));
    EXPECT_LT(std::chrono::steady_clock::now() - t0, bound)
        << "submit " << k << " from E" << k % kN;
  }
  h.host().stop();
  EXPECT_EQ(h.oracle().check_co_service(), std::nullopt);
}

/// A one-shard host of `n` local entities, timers far out, driven with
/// poll_once() on the test thread. Skips (returns null) when build() chose
/// zero spin, which it does unless the machine has a core per shard plus
/// one: the rows below compare the spin with the sleep.
std::unique_ptr<Host> one_shard_host(std::size_t n,
                                     std::atomic<int>& delivered) {
  if (std::thread::hardware_concurrency() < 2) return nullptr;
  proto::CoConfig pcfg = oracle_test_config();
  pcfg.defer_timeout = 10 * time::kSecond;
  pcfg.retransmit_timeout = 20 * time::kSecond;
  HostBuilder builder(n);
  builder.proto(pcfg).deliver(
      [&](EntityId, EntityId, const std::vector<std::uint8_t>&) {
        delivered.fetch_add(1, std::memory_order_relaxed);
      });
  for (std::size_t i = 0; i < n; ++i) builder.entity(static_cast<EntityId>(i));
  return builder.build();
}

/// How long one poll_once(20ms) of `shard` blocks right after activity: a
/// wake() makes the pass before it see the doorbell, which stamps the
/// activity at the end of that pass.
std::chrono::steady_clock::duration blocked_after_activity(Shard& shard) {
  shard.wake();
  EXPECT_TRUE(shard.poll_once(0ms));
  const auto t0 = std::chrono::steady_clock::now();
  shard.poll_once(20ms);
  return std::chrono::steady_clock::now() - t0;
}

// The spin window is for an open exchange only. Two entities on one shard
// finish a broadcast in one pass: the heard-all fast path answers every
// arrival, both deliver, and each last PDU owes no successor. The shard
// then has nothing to pick up early, so a poll right after that activity
// sleeps its whole 20 ms instead of spinning through the window.
TEST(HostRuntime, ShardSleepsOnceEveryExchangeIsClosed) {
  std::atomic<int> delivered{0};
  auto host = one_shard_host(2, delivered);
  if (!host) GTEST_SKIP() << "build() chose zero spin on this machine";
  Shard& shard = host->shard(0);
  ASSERT_EQ(host->submit(0, {1, 2, 3}), SubmitResult::kAccepted);
  EXPECT_TRUE(shard.poll_once(0ms));
  ASSERT_EQ(delivered.load(), 2);
  for (std::size_t e = 0; e < shard.entity_count(); ++e)
    ASSERT_FALSE(shard.entity(e).core().exchange_open()) << "entity " << e;

  EXPECT_GE(blocked_after_activity(shard), 15ms);
}

// ...and it stays open while an exchange is. Three cold entities on one
// shard: after E0's broadcast, E1 and E2 have heard from E0 only, so their
// confirmations wait for the (far-out) defer timer and nobody delivers. A
// poll right after activity still returns at once.
TEST(HostRuntime, ShardSpinsWhileDataIsUndelivered) {
  std::atomic<int> delivered{0};
  auto host = one_shard_host(3, delivered);
  if (!host) GTEST_SKIP() << "build() chose zero spin on this machine";
  Shard& shard = host->shard(0);
  ASSERT_EQ(host->submit(0, {1, 2, 3}), SubmitResult::kAccepted);
  EXPECT_TRUE(shard.poll_once(0ms));
  ASSERT_EQ(delivered.load(), 0);
  for (std::size_t e = 0; e < shard.entity_count(); ++e)
    ASSERT_TRUE(shard.entity(e).core().has_data_interest()) << "entity " << e;

  // A preemption between the two polls longer than the spin window closes
  // the window, so allow three tries; with zero spin all three sleep.
  auto blocked = blocked_after_activity(shard);
  for (int retry = 0; retry < 2 && blocked >= 5ms; ++retry)
    blocked = blocked_after_activity(shard);
  EXPECT_LT(blocked, 5ms);
}

// The records a shard adds to its cores' own: one per submission and one
// per timer arm, cancel and fire. The benchmark's ledger pairs the k-th
// submit record of an entity with its k-th data send and counts arms and
// fires, so their payloads are pinned: a submit names its entity and its
// payload bytes and comes before the send, an arm carries its absolute
// deadline in seq and the timer in arg, and a fire names a timer armed
// before it, at or after that deadline.
TEST(HostRuntime, ShardTracesSubmitsAndTimers) {
  using obs::trace::EventId;
  const proto::CoConfig pcfg = oracle_test_config();
  obs::trace::Tracer tracer;
  auto host = HostBuilder(2).proto(pcfg).entity(0).entity(1).tracer(&tracer)
                  .build();
  ASSERT_EQ(host->shard_count(), 1u);
  constexpr std::size_t kPayload = 5;
  ASSERT_EQ(host->submit(0, std::vector<std::uint8_t>(kPayload, 7)),
            SubmitResult::kAccepted);

  // Poll until a timer has fired: the defer timer answers the last
  // ack-only PDU of the exchange a few milliseconds later.
  const auto of = [](const obs::trace::Record& r) {
    return static_cast<EventId>(r.event);
  };
  std::vector<obs::trace::Record> records;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::none_of(records.begin(), records.end(), [&](const auto& r) {
    return of(r) == EventId::kTimerFire;
  })) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    host->shard(0).poll_once(1ms);
    records = tracer.snapshot();
  }
  ASSERT_EQ(tracer.dropped(), 0u);

  std::size_t submits = 0;
  std::size_t submit_at = records.size();
  std::size_t data_send_at = records.size();
  std::size_t arms = 0;
  std::size_t fires = 0;
  // The deadline of each (entity, timer) armed and not yet cancelled or
  // fired.
  std::map<std::pair<EntityId, std::uint32_t>, time::Tick> armed;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const obs::trace::Record& r = records[i];
    const auto key = std::make_pair(r.actor, r.arg);
    switch (of(r)) {
      case EventId::kSubmit:
        ++submits;
        submit_at = i;
        EXPECT_EQ(r.actor, 0);
        EXPECT_EQ(r.arg, kPayload);
        break;
      case EventId::kSend:
        if (r.actor == 0 && r.arg == 1 && data_send_at == records.size())
          data_send_at = i;
        break;
      case EventId::kTimerArm: {
        ++arms;
        ASSERT_LT(r.arg, proto::kTimerCount);
        const time::Duration delay =
            static_cast<proto::TimerId>(r.arg) == proto::TimerId::kDefer
                ? pcfg.defer_timeout
                : pcfg.retransmit_timeout;
        EXPECT_EQ(r.seq, static_cast<std::uint64_t>(r.at + delay));
        armed[key] = static_cast<time::Tick>(r.seq);
        break;
      }
      case EventId::kTimerCancel:
        armed.erase(key);
        break;
      case EventId::kTimerFire: {
        ++fires;
        const auto it = armed.find(key);
        ASSERT_NE(it, armed.end()) << "E" << r.actor << " timer " << r.arg
                                   << " fired unarmed at " << r.at;
        EXPECT_GE(r.at, it->second);
        armed.erase(it);
        break;
      }
      default:
        break;
    }
  }
  EXPECT_EQ(submits, 1u);
  EXPECT_LT(submit_at, data_send_at);
  EXPECT_LT(data_send_at, records.size());
  EXPECT_GT(arms, 0u);
  EXPECT_GT(fires, 0u);
}

// Hostile input at the shard edge. A decodable message whose src is an
// entity of the receiving shard, or whose datagram did not come from src's
// endpoint, is dropped and counted, never fed to a core. (Before the check,
// the first row aborted the process in report_loss, and a seq 2^21 ahead
// trips ParkBuffer's span check.)
TEST(HostRuntime, ForgedSourcesAreDroppedAtTheEdge) {
  struct Row {
    const char* name;
    EntityId src;
    SeqNo seq;
  };
  const Row rows[] = {
      {"data PDU claiming the receiver's own id", 0, 5},
      {"data PDU claiming a peer's id, from an unrelated socket", 1,
       SeqNo{1} << 21},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    HostHarness h(2, 2, /*send_loss=*/0.0, nullptr);  // one entity per shard
    h.host().start();

    proto::CoPdu forged;
    forged.cid = oracle_test_config().cid;
    forged.src = row.src;
    forged.seq = row.seq;
    forged.ack.assign(2, 0);
    forged.data = {0xBA, 0xD0};
    transport::UdpSocket attacker;
    attacker.bind_loopback(0);
    ASSERT_TRUE(attacker.send_to(h.host().endpoint(0), proto::encode(forged)));

    // As in OversizedDatagramIsCountedNotMisparsed: the forged datagram
    // waits in shard 0's socket ahead of the traffic these submits cause.
    h.submit(0);
    h.submit(1);
    ASSERT_TRUE(h.oracle().await_deliveries(2, 10'000ms));
    EXPECT_TRUE(h.host().await_quiescent(60'000ms));
    h.host().stop();

    EXPECT_EQ(h.host().shard(0).wire_stats().forged_src_drops, 1u);
    EXPECT_EQ(h.host().total_wire_stats().forged_src_drops, 1u);
    EXPECT_EQ(h.host().total_wire_stats().decode_errors, 0u);
    EXPECT_EQ(h.oracle().check_co_service(), std::nullopt);
  }
}

TEST(HostRuntime, StartRequiresEveryPeerEndpoint) {
  // Entity 1 lives elsewhere and its endpoint was never declared.
  auto host = HostBuilder(2)
                  .entity(0)
                  .deliver([](EntityId, EntityId,
                              const std::vector<std::uint8_t>&) {})
                  .build();
  EXPECT_THROW(host->start(), std::logic_error);
  // Declaring it (here: a throwaway loopback port) makes start legal.
  host->set_peer(1, transport::UdpEndpoint::loopback(1));
  host->start();
  host->stop();
}

}  // namespace
}  // namespace co::host

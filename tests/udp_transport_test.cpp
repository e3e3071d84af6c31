// Integration tests: the CO protocol over REAL UDP sockets on loopback —
// CoNodes on their own threads, loss injected at the sender (the loopback
// path itself is effectively lossless), delivery logs checked against a
// shared happened-before oracle.
#include <gtest/gtest.h>

#include <sys/time.h>

#include <csignal>
#include <map>
#include <mutex>
#include <thread>

#include "src/app/payload.h"
#include "src/causality/checkers.h"
#include "src/causality/trace.h"
#include "src/transport/node.h"

namespace co::transport {
namespace {

using namespace std::chrono_literals;
using causality::PduKey;

class UdpCluster {
 public:
  /// Feeds the shared oracle from every node's protocol records (one
  /// observer for all nodes: Record::actor names the reporting node).
  class OracleObserver final : public proto::CoObserver {
   public:
    explicit OracleObserver(UdpCluster& owner) : owner_(owner) {}
    void on_event(const proto::Record& r) override {
      const auto event = static_cast<proto::EventId>(r.event);
      if (event != proto::EventId::kSend && event != proto::EventId::kAccept)
        return;
      const PduKey k{r.origin, r.seq};
      const std::lock_guard<std::mutex> lock(owner_.mutex_);
      if (event == proto::EventId::kAccept) {
        owner_.trace_.on_accept(r.actor, k);
        return;
      }
      owner_.trace_.on_send(r.actor, k);
      if (r.arg == 1)
        owner_.data_keys_[static_cast<std::size_t>(r.actor)].push_back(k);
    }

   private:
    UdpCluster& owner_;
  };

  explicit UdpCluster(std::size_t n, double send_loss = 0.0)
      : n_(n),
        trace_(n),
        logs_(n),
        data_keys_(n),
        submissions_(n, 0),
        oracle_(*this) {
    proto::CoConfig pcfg;
    pcfg.cid = 42;
    pcfg.defer_timeout = 2 * time::kMillisecond;
    pcfg.retransmit_timeout = 10 * time::kMillisecond;
    pcfg.assumed_peer_buffer = 1u << 16;
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<EntityId>(i);
      nodes_.push_back(
          NodeBuilder(id, n)
              .proto(pcfg)
              .send_loss(send_loss, 1000 + i)
              .observer(&oracle_)
              .deliver([this, id](EntityId,
                                  const std::vector<std::uint8_t>& d) {
                const std::lock_guard<std::mutex> lock(mutex_);
                logs_[static_cast<std::size_t>(id)].push_back(d);
              })
              .build());
    }
    std::vector<UdpEndpoint> table;
    for (const auto& node : nodes_) table.push_back(node->local_endpoint());
    for (auto& node : nodes_) node->set_peers(table);
  }

  ~UdpCluster() { stop_and_join(); }

  void start() {
    for (auto& node : nodes_)
      threads_.emplace_back([&node] { node->run_for(60'000ms); });
  }

  void stop_and_join() {
    for (auto& node : nodes_) node->stop();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  CoNode& node(EntityId i) { return *nodes_[static_cast<std::size_t>(i)]; }

  /// Submit a self-describing payload at `at`; tagged (at, k) where k is
  /// the per-entity submission counter.
  void submit(EntityId at) {
    const auto idx = submissions_[static_cast<std::size_t>(at)]++;
    node(at).submit(app::make_payload(at, idx, 32));
  }

  std::size_t delivered_count(EntityId i) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return logs_[static_cast<std::size_t>(i)].size();
  }

  bool await_deliveries(std::size_t expect, std::chrono::milliseconds limit) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    for (;;) {
      bool done = true;
      for (std::size_t i = 0; i < n_; ++i)
        done &= delivered_count(static_cast<EntityId>(i)) >= expect;
      if (done) return true;
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(2ms);
    }
  }

  /// Full CO-service check against the oracle. The i-th data payload an
  /// entity submitted corresponds to its i-th data send key (the node
  /// transmits DT requests in FIFO order).
  std::optional<causality::Violation> check_co_service() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<causality::DeliveryLog> key_logs(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      for (const auto& bytes : logs_[i]) {
        const auto info = app::verify_payload(bytes);
        if (!info)
          return causality::Violation{"payload", static_cast<EntityId>(i),
                                      {}, {}, "corrupt payload"};
        const auto& keys = data_keys_[static_cast<std::size_t>(info->src)];
        if (info->index >= keys.size())
          return causality::Violation{"payload", static_cast<EntityId>(i),
                                      {}, {}, "delivery precedes send?!"};
        key_logs[i].push_back(keys[info->index]);
      }
    }
    std::vector<PduKey> sent;
    for (const auto& ks : data_keys_)
      sent.insert(sent.end(), ks.begin(), ks.end());
    return causality::check_co_service(key_logs, sent, trace_);
  }

  NodeStats total_net_stats() {
    NodeStats s;
    for (const auto& node : nodes_) {
      s.datagrams_sent += node->stats().datagrams_sent;
      s.datagrams_received += node->stats().datagrams_received;
      s.datagrams_dropped_injected += node->stats().datagrams_dropped_injected;
      s.decode_errors += node->stats().decode_errors;
    }
    return s;
  }

  std::uint64_t total_retransmissions() {
    std::uint64_t r = 0;
    for (const auto& node : nodes_)
      r += node->protocol_stats().retransmissions_sent;
    return r;
  }

 private:
  std::size_t n_;
  std::mutex mutex_;
  causality::TraceRecorder trace_;
  std::vector<std::vector<std::vector<std::uint8_t>>> logs_;
  std::vector<std::vector<PduKey>> data_keys_;
  std::vector<std::uint64_t> submissions_;
  OracleObserver oracle_;
  std::vector<std::unique_ptr<CoNode>> nodes_;
  std::vector<std::thread> threads_;
};

TEST(UdpTransport, SocketBindSendReceiveRoundTrip) {
  UdpSocket a, b;
  a.bind_loopback(0);
  b.bind_loopback(0);
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  ASSERT_TRUE(a.send_to(b.local_endpoint(), payload));
  ASSERT_TRUE(b.wait_readable(1000));
  const auto got = b.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, payload);
  EXPECT_EQ(got->from.port, a.local_endpoint().port);
  EXPECT_FALSE(b.receive().has_value());  // queue drained
}

TEST(UdpTransport, LossFreeDeliveryAcrossRealSockets) {
  UdpCluster cluster(3);
  cluster.start();
  for (int round = 0; round < 5; ++round)
    for (EntityId e = 0; e < 3; ++e) cluster.submit(e);
  ASSERT_TRUE(cluster.await_deliveries(15, 20'000ms));
  cluster.stop_and_join();
  EXPECT_EQ(cluster.check_co_service(), std::nullopt);
  EXPECT_EQ(cluster.total_net_stats().decode_errors, 0u);
}

TEST(UdpTransport, CausalChainAcrossRealSockets) {
  UdpCluster cluster(3);
  cluster.start();
  cluster.submit(0);
  ASSERT_TRUE(cluster.await_deliveries(1, 10'000ms));
  cluster.submit(1);  // causally after E0's message everywhere
  ASSERT_TRUE(cluster.await_deliveries(2, 10'000ms));
  cluster.submit(2);
  ASSERT_TRUE(cluster.await_deliveries(3, 10'000ms));
  cluster.stop_and_join();
  EXPECT_EQ(cluster.check_co_service(), std::nullopt);
}

TEST(UdpTransport, RecoversFromInjectedSendLoss) {
  UdpCluster cluster(3, /*send_loss=*/0.15);
  cluster.start();
  for (int round = 0; round < 8; ++round) {
    for (EntityId e = 0; e < 3; ++e) cluster.submit(e);
    std::this_thread::sleep_for(3ms);
  }
  ASSERT_TRUE(cluster.await_deliveries(24, 40'000ms));
  cluster.stop_and_join();
  EXPECT_EQ(cluster.check_co_service(), std::nullopt);
  EXPECT_GT(cluster.total_net_stats().datagrams_dropped_injected, 0u);
  EXPECT_GT(cluster.total_retransmissions(), 0u);
}

// Regression: mutating the peer table after the event loop started used to
// be a silent data race with the polling thread; it must throw now.
TEST(UdpTransport, SetPeersAfterRunStartedThrows) {
  auto node = NodeBuilder(0, 2)
                  .deliver([](EntityId, const std::vector<std::uint8_t>&) {})
                  .build();
  std::vector<UdpEndpoint> table{node->local_endpoint(),
                                 UdpEndpoint::loopback(1)};
  node->set_peers(table);  // bound: legal
  node->poll_once(0ms);    // enters the running state
  EXPECT_THROW(node->set_peers(table), std::logic_error);
}

// Regression: submit() used to queue into an unbounded inbox; the bounded
// submission ring must reject (and count) overflow instead.
TEST(UdpTransport, SubmitBackpressureIsBoundedAndCounted) {
  auto node = NodeBuilder(0, 2)
                  .peer(1, UdpEndpoint::loopback(1))
                  .submit_queue(4)
                  .deliver([](EntityId, const std::vector<std::uint8_t>&) {})
                  .build();
  // Never polled: nothing drains, so the ring capacity is the bound.
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(node->submit({1, 2, 3}), host::SubmitResult::kAccepted);
  EXPECT_EQ(node->submit({1, 2, 3}), host::SubmitResult::kQueueFull);
  EXPECT_EQ(node->stats().submit_rejected, 1u);
}

// Regression: wait_readable treated the first EINTR as "not readable",
// letting any interval timer collapse an 80 ms wait to microseconds and
// starve the caller. The wait must now be served in full, restarting with
// the residual budget after every signal.
TEST(UdpTransport, WaitReadableSurvivesSignalStorm) {
  UdpSocket sock;
  sock.bind_loopback(0);

  struct sigaction sa{}, old_sa{};
  sa.sa_handler = +[](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately NOT SA_RESTART: poll must see EINTR
  ASSERT_EQ(::sigaction(SIGALRM, &sa, &old_sa), 0);
  itimerval storm{}, old_timer{};
  storm.it_interval.tv_usec = 5'000;  // a signal every 5 ms, forever
  storm.it_value.tv_usec = 5'000;
  ASSERT_EQ(::setitimer(ITIMER_REAL, &storm, &old_timer), 0);

  // Phase 1: nothing readable — the full 80 ms budget must elapse even
  // though ~16 signals land inside it.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(sock.wait_readable(80));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 75ms);

  // Phase 2: a datagram arriving mid-storm still ends the wait early.
  UdpSocket sender;
  sender.bind_loopback(0);
  std::thread poker([&] {
    std::this_thread::sleep_for(20ms);
    const std::uint8_t byte = 7;
    sender.send_to(sock.local_endpoint(), {&byte, 1});
  });
  EXPECT_TRUE(sock.wait_readable(5'000));
  poker.join();

  ::setitimer(ITIMER_REAL, &old_timer, nullptr);
  ::sigaction(SIGALRM, &old_sa, nullptr);
}

// Regression: a timer armed days out (huge defer/retransmit timeouts)
// used to wrap the Tick -> int poll-timeout cast negative in the shard
// loop, turning idle poll_once calls into a 100%-CPU busy spin. Ten 5 ms
// idle polls must now take real wall time.
TEST(UdpTransport, FarFutureTimerDoesNotBusySpinPollOnce) {
  proto::CoConfig pcfg;
  pcfg.cid = 7;
  pcfg.defer_timeout = 30ll * 24 * 3600 * time::kSecond;
  pcfg.retransmit_timeout = 40ll * 24 * 3600 * time::kSecond;
  auto node = NodeBuilder(0, 2)
                  .proto(pcfg)
                  .peer(1, UdpEndpoint::loopback(1))  // black hole
                  .deliver([](EntityId, const std::vector<std::uint8_t>&) {})
                  .build();
  // One submission arms both far-future timers (the peer never answers).
  ASSERT_EQ(node->submit({1, 2, 3}), host::SubmitResult::kAccepted);
  node->poll_once(5ms);
  std::this_thread::sleep_for(5ms);  // outlive the post-activity spin window

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) node->poll_once(5ms);
  // >= 20 ms allows generous scheduler slop; the busy spin returned in
  // microseconds.
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 20ms);
}

// Coalescing: k submits queued before the first poll are one drain phase,
// so their k data PDUs leave as ONE datagram to the peer, and the peer
// accepts all k from that one datagram.
TEST(UdpTransport, QueuedSubmitsLeaveAsOneDatagram) {
  constexpr int kSubmits = 5;  // below the default window of 8

  class AcceptCounter final : public proto::CoObserver {
   public:
    void on_event(const proto::Record& r) override {
      from_zero += static_cast<proto::EventId>(r.event) ==
                       proto::EventId::kAccept &&
                   r.origin == 0;
    }
    int from_zero = 0;
  } accepted;

  proto::CoConfig pcfg;
  pcfg.assumed_peer_buffer = 1u << 16;
  auto sender = NodeBuilder(0, 2)
                    .proto(pcfg)
                    .deliver([](EntityId, const std::vector<std::uint8_t>&) {})
                    .build();
  auto receiver = NodeBuilder(1, 2)
                      .proto(pcfg)
                      .observer(&accepted)
                      .deliver([](EntityId,
                                  const std::vector<std::uint8_t>&) {})
                      .build();
  const std::vector<UdpEndpoint> table{sender->local_endpoint(),
                                       receiver->local_endpoint()};
  sender->set_peers(table);
  receiver->set_peers(table);

  for (int i = 0; i < kSubmits; ++i)
    ASSERT_EQ(sender->submit({1, 2, static_cast<std::uint8_t>(i)}),
              host::SubmitResult::kAccepted);
  sender->poll_once(0ms);
  EXPECT_EQ(sender->protocol_stats().snapshot().data_pdus_sent,
            static_cast<std::uint64_t>(kSubmits));
  EXPECT_EQ(sender->stats().datagrams_sent, 1u);

  // Loopback sendmmsg is synchronous: the frame already waits in the
  // receiver's socket buffer.
  receiver->poll_once(1000ms);
  EXPECT_EQ(receiver->stats().datagrams_received, 1u);
  EXPECT_EQ(receiver->stats().decode_errors, 0u);
  EXPECT_EQ(accepted.from_zero, kSubmits);
}

TEST(UdpTransport, GarbageDatagramsAreIgnored) {
  UdpCluster cluster(2);
  cluster.start();
  // Blast junk at node 0's port from a raw socket.
  UdpSocket junk;
  junk.bind_loopback(0);
  const auto target = cluster.node(0).local_endpoint();
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> noise(1 + i % 32,
                                    static_cast<std::uint8_t>(i * 37));
    junk.send_to(target, noise);
  }
  cluster.submit(0);
  cluster.submit(1);
  ASSERT_TRUE(cluster.await_deliveries(2, 20'000ms));
  cluster.stop_and_join();
  EXPECT_EQ(cluster.check_co_service(), std::nullopt);
  EXPECT_GT(cluster.node(0).stats().decode_errors, 0u);
}

}  // namespace
}  // namespace co::transport

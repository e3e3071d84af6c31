// Integration tests: the CO protocol over REAL UDP sockets on loopback,
// deployed as the paper deploys it — one entity per process. Each entity
// gets its own single-entity Host, and the hosts learn each other's
// endpoints through set_peer() before start(), so every PDU crosses between
// separately built hosts. Loss is injected at the sender (the loopback path
// itself is effectively lossless) and delivery logs are checked against
// the shared happened-before oracle.
#include <gtest/gtest.h>

#include <sys/time.h>

#include <csignal>
#include <thread>

#include "src/host/host.h"
#include "tests/co_service_oracle.h"

namespace co::transport {
namespace {

using namespace std::chrono_literals;
using host::Host;
using host::HostBuilder;
using host::SubmitResult;

/// n single-entity hosts, one per entity, checked by one CoServiceOracle.
class UdpCluster {
 public:
  explicit UdpCluster(std::size_t n, double send_loss = 0.0) : oracle_(n) {
    for (std::size_t i = 0; i < n; ++i)
      hosts_.push_back(HostBuilder(n)
                           .proto(host::oracle_test_config())
                           .entity(static_cast<EntityId>(i))
                           .send_loss(send_loss, /*seed=*/1000)
                           .observer(&oracle_)
                           .deliver(oracle_.deliver_fn())
                           .build());
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (i != j)
          hosts_[i]->set_peer(static_cast<EntityId>(j),
                              hosts_[j]->endpoint(static_cast<EntityId>(j)));
  }

  void start() {
    for (auto& h : hosts_) h->start();
  }

  void stop() {
    for (auto& h : hosts_) h->stop();
  }

  /// The host running entity `i`.
  Host& host(EntityId i) { return *hosts_[static_cast<std::size_t>(i)]; }

  void submit(EntityId at) {
    ASSERT_EQ(host(at).submit(at, oracle_.next_payload(at)),
              SubmitResult::kAccepted);
  }

  host::CoServiceOracle& oracle() { return oracle_; }

  host::WireStats total_wire_stats() const {
    host::WireStats s;
    for (const auto& h : hosts_) s += h->total_wire_stats();
    return s;
  }

  std::uint64_t total_retransmissions() const {
    std::uint64_t r = 0;
    for (std::size_t i = 0; i < hosts_.size(); ++i)
      r += hosts_[i]->protocol_stats(static_cast<EntityId>(i))
               .retransmissions_sent;
    return r;
  }

 private:
  host::CoServiceOracle oracle_;
  std::vector<std::unique_ptr<Host>> hosts_;
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
  ASSERT_TRUE(cluster.oracle().await_deliveries(15, 20'000ms));
  cluster.stop();
  EXPECT_EQ(cluster.oracle().check_co_service(), std::nullopt);
  EXPECT_EQ(cluster.total_wire_stats().decode_errors, 0u);
}

TEST(UdpTransport, CausalChainAcrossRealSockets) {
  UdpCluster cluster(3);
  cluster.start();
  cluster.submit(0);
  ASSERT_TRUE(cluster.oracle().await_deliveries(1, 10'000ms));
  cluster.submit(1);  // causally after E0's message everywhere
  ASSERT_TRUE(cluster.oracle().await_deliveries(2, 10'000ms));
  cluster.submit(2);
  ASSERT_TRUE(cluster.oracle().await_deliveries(3, 10'000ms));
  cluster.stop();
  EXPECT_EQ(cluster.oracle().check_co_service(), std::nullopt);
}

TEST(UdpTransport, RecoversFromInjectedSendLoss) {
  UdpCluster cluster(3, /*send_loss=*/0.15);
  cluster.start();
  for (int round = 0; round < 8; ++round) {
    for (EntityId e = 0; e < 3; ++e) cluster.submit(e);
    std::this_thread::sleep_for(3ms);
  }
  ASSERT_TRUE(cluster.oracle().await_deliveries(24, 40'000ms));
  cluster.stop();
  EXPECT_EQ(cluster.oracle().check_co_service(), std::nullopt);
  EXPECT_GT(cluster.total_wire_stats().datagrams_dropped_injected, 0u);
  EXPECT_GT(cluster.total_retransmissions(), 0u);
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
// idle polls of a bound host's shard must now take real wall time.
TEST(UdpTransport, FarFutureTimerDoesNotBusySpinPollOnce) {
  proto::CoConfig pcfg;
  pcfg.cid = 7;
  pcfg.defer_timeout = 30ll * 24 * 3600 * time::kSecond;
  pcfg.retransmit_timeout = 40ll * 24 * 3600 * time::kSecond;
  auto host = HostBuilder(2)
                  .proto(pcfg)
                  .entity(0)
                  .peer(1, UdpEndpoint::loopback(1))  // black hole
                  .build();
  host::Shard& shard = host->shard(0);
  // One submission arms both far-future timers (the peer never answers).
  ASSERT_EQ(host->submit(0, {1, 2, 3}), SubmitResult::kAccepted);
  shard.poll_once(5ms);
  std::this_thread::sleep_for(5ms);  // outlive the post-activity spin window

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) shard.poll_once(5ms);
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
  auto sender = HostBuilder(2).proto(pcfg).entity(0).build();
  auto receiver =
      HostBuilder(2).proto(pcfg).entity(1).observer(&accepted).build();
  sender->set_peer(1, receiver->endpoint(1));
  receiver->set_peer(0, sender->endpoint(0));

  for (int i = 0; i < kSubmits; ++i)
    ASSERT_EQ(sender->submit(0, {1, 2, static_cast<std::uint8_t>(i)}),
              SubmitResult::kAccepted);
  sender->shard(0).poll_once(0ms);
  EXPECT_EQ(sender->protocol_stats(0).data_pdus_sent,
            static_cast<std::uint64_t>(kSubmits));
  EXPECT_EQ(sender->total_wire_stats().datagrams_sent, 1u);

  // Loopback sendmmsg is synchronous: the frame already waits in the
  // receiver's socket buffer.
  receiver->shard(0).poll_once(1000ms);
  EXPECT_EQ(receiver->total_wire_stats().datagrams_received, 1u);
  EXPECT_EQ(receiver->total_wire_stats().decode_errors, 0u);
  EXPECT_EQ(accepted.from_zero, kSubmits);
}

TEST(UdpTransport, GarbageDatagramsAreIgnored) {
  UdpCluster cluster(2);
  cluster.start();
  // Blast junk at entity 0's port from a raw socket.
  UdpSocket junk;
  junk.bind_loopback(0);
  const auto target = cluster.host(0).endpoint(0);
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> noise(1 + i % 32,
                                    static_cast<std::uint8_t>(i * 37));
    junk.send_to(target, noise);
  }
  cluster.submit(0);
  cluster.submit(1);
  ASSERT_TRUE(cluster.oracle().await_deliveries(2, 20'000ms));
  cluster.stop();
  EXPECT_EQ(cluster.oracle().check_co_service(), std::nullopt);
  EXPECT_GT(cluster.host(0).total_wire_stats().decode_errors, 0u);
}

}  // namespace
}  // namespace co::transport

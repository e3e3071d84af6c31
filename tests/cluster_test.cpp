// Integration tests: a full CO cluster on a loss-free MC network.
#include <gtest/gtest.h>

#include "src/driver/cluster.h"

namespace co::proto {
namespace {

using sim::literals::operator""_us;
using sim::literals::operator""_ms;

ClusterOptions basic_options(std::size_t n) {
  ClusterOptions o;
  o.proto.n = n;
  o.proto.window = 8;
  o.proto.defer_timeout = 500 * sim::kMicrosecond;
  o.proto.retransmit_timeout = 2 * sim::kMillisecond;
  o.net.n = n;
  o.net.delay = net::DelayModel::fixed(100_us);
  o.net.buffer_capacity = 1024;
  o.net.service_time = 0;
  return o;
}

TEST(CoCluster, SingleSenderDeliversEverywhere) {
  CoCluster c(basic_options(3));
  c.submit_text(0, "hello");
  ASSERT_TRUE(c.run_until_delivered(1'000 * sim::kMillisecond));
  for (EntityId i = 0; i < 3; ++i) {
    const auto& log = c.deliveries(i);
    ASSERT_EQ(log.size(), 1u) << "entity " << i;
    EXPECT_EQ(log[0].key, (causality::PduKey{0, kFirstSeq}));
    EXPECT_EQ(std::string(log[0].data.begin(), log[0].data.end()), "hello");
  }
  EXPECT_EQ(c.check_co_service(), std::nullopt);
}

TEST(CoCluster, SameSourceOrderPreserved) {
  CoCluster c(basic_options(4));
  for (int i = 0; i < 10; ++i) c.submit_text(1, "m" + std::to_string(i));
  ASSERT_TRUE(c.run_until_delivered(1'000 * sim::kMillisecond));
  for (EntityId e = 0; e < 4; ++e) {
    const auto log = c.delivered_keys(e);
    ASSERT_EQ(log.size(), 10u);
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].src, 1);
      EXPECT_EQ(log[i].seq, kFirstSeq + i);
    }
  }
  EXPECT_EQ(c.check_co_service(), std::nullopt);
}

TEST(CoCluster, MultipleSendersCausalOrder) {
  CoCluster c(basic_options(3));
  // E0 sends a; once delivered, E1 sends b (so a ≺ b must hold everywhere).
  c.submit_text(0, "a");
  ASSERT_TRUE(c.run_until_delivered(1'000 * sim::kMillisecond));
  c.submit_text(1, "b");
  ASSERT_TRUE(c.run_until_delivered(2'000 * sim::kMillisecond));
  ASSERT_EQ(c.data_sent().size(), 2u);
  const auto a = c.data_sent()[0];
  const auto b = c.data_sent()[1];
  EXPECT_EQ(a.src, 0);
  EXPECT_EQ(b.src, 1);
  for (EntityId e = 0; e < 3; ++e) {
    const auto log = c.delivered_keys(e);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0], a);
    EXPECT_EQ(log[1], b);
  }
  EXPECT_TRUE(c.oracle().causally_precedes(a, b));
  EXPECT_EQ(c.check_co_service(), std::nullopt);
}

TEST(CoCluster, ConcurrentSendersStillAgreeOnCausalPairs) {
  CoCluster c(basic_options(5));
  // Everyone blasts concurrently; the CO service requires causal pairs to be
  // ordered identically, concurrent pairs may differ per entity.
  for (int round = 0; round < 6; ++round)
    for (EntityId e = 0; e < 5; ++e)
      c.submit_text(e, "r" + std::to_string(round));
  ASSERT_TRUE(c.run_until_delivered(5'000 * sim::kMillisecond));
  EXPECT_EQ(c.check_co_service(), std::nullopt);
  EXPECT_EQ(c.deliveries(0).size(), 30u);
}

TEST(CoCluster, StatsAreConsistent) {
  CoCluster c(basic_options(3));
  for (int i = 0; i < 5; ++i) c.submit_text(0, "x");
  ASSERT_TRUE(c.run_until_delivered(1'000 * sim::kMillisecond));
  const auto agg = c.aggregate_stats();
  EXPECT_EQ(agg.data_pdus_sent, 5u);
  EXPECT_EQ(agg.delivered_to_app, 15u);  // 5 PDUs x 3 entities
  // No loss on this network: no failure detections, no retransmissions.
  EXPECT_EQ(agg.f1_detections, 0u);
  EXPECT_EQ(agg.retransmissions_sent, 0u);
  EXPECT_EQ(c.network().stats().dropped_total(), 0u);
}

TEST(CoCluster, FlowConditionBlocksBeyondWindow) {
  auto o = basic_options(3);
  o.proto.window = 2;
  CoCluster c(o);
  for (int i = 0; i < 20; ++i) c.submit_text(0, "x");
  // Only W PDUs may be outstanding before confirmations arrive.
  EXPECT_LE(c.entity(0).next_seq(), kFirstSeq + 2);
  EXPECT_GE(c.entity(0).app_queue_depth(), 18u);
  ASSERT_TRUE(c.run_until_delivered(10'000 * sim::kMillisecond));
  EXPECT_EQ(c.check_co_service(), std::nullopt);
}

// A single broadcast on a warm, loss-free cluster is acknowledged by the
// paper's two confirmation rounds of n ack-only PDUs each, never by the
// defer timer: the entity that delivers first still sends the successor
// its last PDU owes (DESIGN.md deviation #9). At 25-µs links a broadcast
// takes 2n+1 link delays (0.825 ms at n = 16). Without the successor, 2n−1
// ack-only PDUs went out and every entity but the source waited for the
// next submit (5.05 ms here) or the 10-ms defer timer.
class SingleSubmit : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SingleSubmit, WarmClusterConfirmsInTwoRoundsOfN) {
  const std::size_t n = GetParam();
  ClusterOptions o;
  o.proto.n = n;
  o.proto.defer_timeout = 10 * sim::kMillisecond;
  o.net = net::McConfig::reliable(n, 25_us);
  CoCluster c(o);
  const auto source = [n](std::size_t k) {
    return static_cast<EntityId>(k % n);
  };
  // Warm-up: a cold entity has heard from no one since its last send, so
  // the first exchanges fall back to the timer.
  for (std::size_t k = 0; k < 2 * n; ++k) {
    c.submit_text(source(k), "warm");
    c.run_for(5_ms);
  }
  ASSERT_TRUE(c.all_delivered());
  for (std::size_t k = 0; k < 4 * n; ++k) {
    const std::uint64_t ctrl = c.aggregate_stats().ctrl_pdus_sent;
    c.submit_text(source(k), "m" + std::to_string(k));
    c.run_for(1_ms);
    EXPECT_TRUE(c.all_delivered()) << "n=" << n << " submit " << k;
    c.run_for(4_ms);
    EXPECT_EQ(c.aggregate_stats().ctrl_pdus_sent - ctrl, 2 * n)
        << "n=" << n << " submit " << k;
  }
  EXPECT_EQ(c.check_co_service(), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SingleSubmit,
                         ::testing::Values(2, 3, 4, 8, 16));

}  // namespace
}  // namespace co::proto

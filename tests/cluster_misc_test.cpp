// Odds-and-ends coverage: delivery metadata, metric plumbing, stats
// formatting — the small API surfaces the larger suites use implicitly.
#include <gtest/gtest.h>

#include <sstream>

#include "src/driver/cluster.h"

namespace co::proto {
namespace {

using sim::literals::operator""_us;

ClusterOptions opts(std::size_t n) {
  ClusterOptions o;
  o.proto.n = n;
  o.net.delay = net::DelayModel::fixed(100_us);
  o.net.buffer_capacity = 1024;
  return o;
}

TEST(ClusterMisc, DeliveriesCarryExactPayloadAndTimestamp) {
  CoCluster c(opts(2));
  const std::vector<std::uint8_t> payload{0x00, 0xff, 0x42};
  c.submit(0, payload);
  ASSERT_TRUE(c.run_until_delivered(10'000 * sim::kMillisecond));
  const auto& d = c.deliveries(1);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].data, payload);
  EXPECT_GT(d[0].at, 0);  // delivered strictly after t=0
  EXPECT_EQ(d[0].key.src, 0);
}

TEST(ClusterMisc, TapStatsPopulate) {
  CoCluster c(opts(3));
  for (int i = 0; i < 4; ++i) c.submit_text(0, "x");
  ASSERT_TRUE(c.run_until_delivered(10'000 * sim::kMillisecond));
  // 4 PDUs x 3 destinations = 12 latency samples.
  EXPECT_EQ(c.tap_ms().count(), 12u);
  EXPECT_GT(c.tap_ms().mean(), 0.0);
  EXPECT_GE(c.tap_ms().max(), c.tap_ms().mean());
}

TEST(ClusterMisc, AggregateStatsAddUp) {
  CoCluster c(opts(3));
  for (int i = 0; i < 6; ++i) c.submit_text(static_cast<EntityId>(i % 3), "x");
  ASSERT_TRUE(c.run_until_delivered(10'000 * sim::kMillisecond));
  const auto agg = c.aggregate_stats();
  std::uint64_t data = 0, delivered = 0;
  for (EntityId e = 0; e < 3; ++e) {
    data += c.entity(e).stats().data_pdus_sent;
    delivered += c.entity(e).stats().delivered_to_app;
  }
  EXPECT_EQ(agg.data_pdus_sent, data);
  EXPECT_EQ(agg.delivered_to_app, delivered);
  EXPECT_EQ(agg.delivered_to_app, 18u);
  EXPECT_GT(agg.messages_processed, 0u);
  EXPECT_GT(agg.tco_us_per_message(), 0.0);
}

TEST(ClusterMisc, NetworkStatsStreamOutput) {
  net::NetworkStats s;
  s.broadcasts = 1;
  s.pdus_sent = 3;
  s.dropped_overrun = 2;
  std::ostringstream os;
  os << s;
  EXPECT_NE(os.str().find("broadcasts=1"), std::string::npos);
  EXPECT_NE(os.str().find("drop_overrun=2"), std::string::npos);
  EXPECT_EQ(s.dropped_total(), 2u);
  EXPECT_NEAR(s.loss_rate(), 2.0 / 3.0, 1e-9);
}

TEST(ClusterMisc, RunForAdvancesSimTimeExactly) {
  CoCluster c(opts(2));
  c.run_for(1234 * sim::kMicrosecond);
  EXPECT_EQ(c.scheduler().now(), 1234 * sim::kMicrosecond);
}

TEST(ClusterMisc, RecordTraceOffStillDelivers) {
  auto o = opts(2);
  o.record_trace = false;
  CoCluster c(o);
  c.submit_text(0, "x");
  ASSERT_TRUE(c.run_until_delivered(10'000 * sim::kMillisecond));
  EXPECT_EQ(c.deliveries(1).size(), 1u);
  EXPECT_THROW((void)c.check_co_service(), std::logic_error);
}

TEST(ClusterMisc, SubmitRejectsEmptyPayload) {
  CoCluster c(opts(2));
  EXPECT_THROW(c.submit(0, {}), std::logic_error);
}

TEST(ClusterMisc, EntityAccessorBoundsChecked) {
  CoCluster c(opts(2));
  EXPECT_THROW(c.entity(2), std::logic_error);
  EXPECT_THROW(c.entity(-1), std::logic_error);
  EXPECT_THROW(c.deliveries(5), std::logic_error);
}

TEST(ClusterMisc, UndeliveredBufferedDrainsToControlResidue) {
  CoCluster c(opts(3));
  for (int i = 0; i < 5; ++i) c.submit_text(0, "x");
  ASSERT_TRUE(c.run_until_delivered(10'000 * sim::kMillisecond));
  // After delivery, only ack-only PDUs may still sit in RRL/PRL awaiting
  // their own (irrelevant) acknowledgment.
  for (EntityId e = 0; e < 3; ++e) {
    const auto& ent = c.entity(e);
    EXPECT_EQ(ent.stats().delivered_to_app, 5u);
    EXPECT_LT(ent.undelivered_buffered(), 64u);
  }
}

TEST(ClusterMisc, DeliverOnAcceptKeepsLocalOrderButBreaksCausalOrder) {
  // Delivering on acceptance is the LO service of the authors' earlier PO
  // protocol [16]. On the paper's Fig. 2 shape it keeps each source's order
  // but not causal order: E0 sends a over a slow link to E2, E1 accepts a
  // and sends b, and E2 accepts b first. The real protocol delivers the
  // same run causally.
  std::vector<std::vector<sim::SimDuration>> d(
      3, std::vector<sim::SimDuration>(3, 100_us));
  d[0][2] = 900_us;  // a crawls to E2
  for (const auto mutation : {Mutation::kDeliverOnAccept, Mutation::kNone}) {
    auto o = opts(3);
    o.net.delay = net::DelayModel::matrix(d);
    o.proto.mutation = mutation;
    CoCluster c(o);
    c.submit_text(0, "a");
    c.run_for(300_us);  // E1 has accepted a, E2 has not
    c.submit_text(1, "b");
    ASSERT_TRUE(c.run_until_delivered(10'000 * sim::kMillisecond));
    for (EntityId e = 0; e < 3; ++e)
      EXPECT_EQ(causality::check_local_order_preserved(e, c.delivered_keys(e)),
                std::nullopt);
    const auto violation = c.check_co_service();
    if (mutation == Mutation::kNone) {
      EXPECT_EQ(violation, std::nullopt) << violation->to_string();
      continue;
    }
    ASSERT_TRUE(violation.has_value())
        << "delivery on acceptance kept causal order";
    EXPECT_EQ(violation->kind, "causality");
    EXPECT_EQ(violation->entity, 2);
  }
}

}  // namespace
}  // namespace co::proto

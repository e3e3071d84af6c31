// Unit tests: the single record-carrying CoObserver (null object, the
// cluster's record stream against its Tracer, user tap plumbing),
// ClusterOptions validation, and the DstMask width regression for clusters
// larger than 64 entities.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/driver/cluster.h"
#include "src/co/observer.h"
#include "src/obs/trace/tracer.h"

namespace co::proto {
namespace {

using sim::literals::operator""_us;

struct RecordLog final : CoObserver {
  std::vector<Record> records;
  void on_event(const Record& r) override { records.push_back(r); }

  std::size_t count(EventId e) const {
    std::size_t c = 0;
    for (const Record& r : records) c += static_cast<EventId>(r.event) == e;
    return c;
  }
};

TEST(Observer, NullObserverAcceptsEverythingQuietly) {
  CoObserver& o = null_observer();
  Record r;
  r.event = static_cast<std::uint16_t>(EventId::kSend);
  o.on_event(r);
  EXPECT_EQ(&null_observer(), &null_observer());  // one shared instance
}

// The one stream: every record a user observer sees is exactly what the
// cluster's Tracer stores (bar the Tracer-assigned stream id), in order,
// stamped with non-decreasing scheduler time, and the run's loss and
// recovery shows up in it as the full protocol lifecycle.
TEST(ProtocolTrace, ClusterEmitsLifecycleEvents) {
  obs::trace::TracerConfig tc;
  tc.ring_capacity = std::size_t{1} << 16;
  obs::trace::Tracer tracer(tc);
  RecordLog log;
  ClusterOptions o;
  o.proto.n = 6;
  o.net.delay = net::DelayModel::fixed(100_us);
  o.net.buffer_capacity = 1024;
  o.tracer = &tracer;
  o.observer = &log;
  CoCluster c(o);
  c.network().force_drop(0, 2, 1);
  c.submit_text(0, "a");
  c.submit_text(0, "b");
  c.submit_text(3, "c");
  ASSERT_TRUE(c.run_until_delivered(60'000 * sim::kMillisecond));

  ASSERT_EQ(tracer.dropped(), 0u) << "ring too small for the run";
  const std::vector<Record> traced = tracer.snapshot();
  ASSERT_EQ(log.records.size(), traced.size());
  std::set<EntityId> actors;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Record& a = log.records[i];
    const Record& b = traced[i];
    EXPECT_EQ(a.at, b.at) << i;
    EXPECT_EQ(a.seq, b.seq) << i;
    EXPECT_EQ(a.origin, b.origin) << i;
    EXPECT_EQ(a.actor, b.actor) << i;
    EXPECT_EQ(a.event, b.event) << i;
    EXPECT_EQ(a.arg, b.arg) << i;
    EXPECT_EQ(a.stream, 0u) << "the core leaves stream to the Tracer";
    if (i > 0) {
      EXPECT_LE(log.records[i - 1].at, a.at) << i;
    }
    actors.insert(a.actor);
  }
  EXPECT_EQ(actors.size(), 6u);

  // The full lifecycle appears: send, accept, loss detection, RET,
  // retransmission, pre-ack, ack, delivery.
  for (const EventId e : {EventId::kSend, EventId::kAccept, EventId::kPack,
                          EventId::kAck, EventId::kDeliver, EventId::kRet,
                          EventId::kRtx})
    EXPECT_GT(log.count(e), 0u) << "missing " << obs::trace::event_name(e);
  // Loss was detected via F(1) (gap on next PDU) or F(2) (via confirmation).
  EXPECT_GT(log.count(EventId::kF1) + log.count(EventId::kF2), 0u);
  // Every data PDU is delivered once per entity, each delivery recorded.
  EXPECT_EQ(log.count(EventId::kDeliver), 3u * 6u);
}

TEST(ProtocolTrace, NoSinkMeansNoEvents) {
  // Nothing attached: the cluster's own bookkeeping still runs the show
  // (delivery, oracle) and nothing else is required to observe it.
  ClusterOptions o;
  o.proto.n = 2;
  o.net.delay = net::DelayModel::fixed(100_us);
  o.net.buffer_capacity = 1024;
  CoCluster c(o);
  c.submit_text(0, "x");
  EXPECT_TRUE(c.run_until_delivered(10'000 * sim::kMillisecond));
  EXPECT_EQ(c.check_co_service(), std::nullopt);
}

ClusterOptions small_options() {
  ClusterOptions o;
  o.proto.n = 3;
  o.proto.window = 4;
  o.proto.defer_timeout = 500_us;
  o.proto.retransmit_timeout = 2 * sim::kMillisecond;
  o.net.delay = net::DelayModel::fixed(100_us);
  o.net.buffer_capacity = 4096;
  return o;
}

TEST(ClusterOptions, RejectsInvalidConfigAtConstruction) {
  ClusterOptions o = small_options();
  o.proto.n = 1;  // n < 2
  EXPECT_THROW(CoCluster{o}, std::logic_error);
}

TEST(ClusterOptions, UserObserverSeesEveryMilestoneAfterBookkeeping) {
  struct Tap final : CoObserver {
    CoCluster* cluster = nullptr;
    std::size_t sends = 0, accepts = 0, acks = 0;
    bool bookkeeping_first = true;
    void on_event(const Record& r) override {
      const auto e = static_cast<EventId>(r.event);
      if (e == EventId::kSend && r.arg == 1) {
        ++sends;
        // The cluster already counted this data PDU as sent.
        const auto& sent = cluster->data_sent();
        bookkeeping_first &= !sent.empty() &&
                             sent.back() == PduKey{r.origin, r.seq};
      }
      accepts += e == EventId::kAccept;
      acks += e == EventId::kAck;
    }
  } tap;
  ClusterOptions o = small_options();
  o.observer = &tap;
  CoCluster c(o);
  tap.cluster = &c;
  c.submit_text(0, "observed");
  ASSERT_TRUE(c.run_until_delivered(1'000 * sim::kMillisecond));
  EXPECT_EQ(tap.sends, 1u);   // the data PDU
  EXPECT_GE(tap.accepts, 3u); // accepted at every entity
  EXPECT_GE(tap.acks, 3u);    // lifecycle milestones flow to the tap
  EXPECT_TRUE(tap.bookkeeping_first);
  // The cluster's own bookkeeping ran too (delivery logs are its job).
  EXPECT_EQ(c.deliveries(1).size(), 1u);
}

// Regression: DstMask is 64 bits wide. Clusters beyond 64 entities used to
// hit undefined-behaviour shifts (read: silent truncation) the moment any
// code asked about E_64; now broadcast works at any n and selective masks
// are rejected loudly (CoConfig::validate documents the boundary).
TEST(DstMaskWidth, BroadcastWorksBeyondSixtyFourEntities) {
  ClusterOptions o = small_options();
  o.proto.n = 65;
  // The flow condition admits min(W, minBUF / (H*2n)) PDUs: at n=65 the
  // default buffer assumptions floor that to zero, so size buffers for n.
  o.proto.assumed_peer_buffer = 1u << 16;
  o.net.buffer_capacity = 1u << 16;
  o.record_trace = false;
  CoCluster c(o);
  for (EntityId e = 64; e < 65; ++e)
    EXPECT_TRUE(dst_contains(kEveryone, e));
  c.submit_text(64, "from the far side");
  ASSERT_TRUE(c.run_until_delivered(10'000 * sim::kMillisecond));
  EXPECT_EQ(c.deliveries(0).size(), 1u);
  EXPECT_EQ(c.deliveries(63).size(), 1u);
}

TEST(DstMaskWidth, SelectiveMasksAreRejectedInOversizedClusters) {
  ClusterOptions o = small_options();
  o.proto.n = 65;
  o.record_trace = false;
  CoCluster c(o);
  EXPECT_THROW(c.submit(0, {1, 2, 3}, dst_of({1, 2})), std::logic_error);
}

TEST(DstMaskWidth, EntitiesPastTheMaskAreNeverSelectiveDestinations) {
  // A selective mask cannot name E_64+; dst_contains must say "no", not
  // shift by >= 64 (UB) and answer garbage.
  const DstMask some = dst_of({0, 63});
  EXPECT_TRUE(dst_contains(some, 0));
  EXPECT_TRUE(dst_contains(some, 63));
  EXPECT_FALSE(dst_contains(some, 64));
  EXPECT_FALSE(dst_contains(some, 200));
  EXPECT_THROW(dst_of({64}), std::logic_error);
}

}  // namespace
}  // namespace co::proto

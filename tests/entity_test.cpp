// Unit tests: CoCore protocol rules, driven sans-io through step() with
// hand-crafted PDUs — including the paper's Example 4.1 state evolution.
#include <gtest/gtest.h>

#include <memory>

#include "src/co/core.h"
#include "tests/step_harness.h"

namespace co::proto {
namespace {

CoConfig config3() {
  CoConfig c;
  c.n = 3;
  c.window = 8;
  c.defer_timeout = 1 * time::kMillisecond;
  c.retransmit_timeout = 4 * time::kMillisecond;
  c.assumed_peer_buffer = 4096;
  return c;
}

CoPdu make(EntityId src, SeqNo seq, std::vector<SeqNo> ack,
           std::vector<std::uint8_t> data = {1}) {
  CoPdu p;
  p.cid = 1;
  p.src = src;
  p.seq = seq;
  p.ack = std::move(ack);
  p.buf = 4096;
  p.data = std::move(data);
  return p;
}

TEST(Entity, InitialStateMatchesPaperConventions) {
  StepHarness h(0, config3());
  CoCore& e = h.core();
  EXPECT_EQ(e.next_seq(), kFirstSeq);
  for (EntityId j = 0; j < 3; ++j) {
    EXPECT_EQ(e.req(j), kFirstSeq);
    EXPECT_EQ(e.min_al(j), kFirstSeq);
    EXPECT_EQ(e.min_pal(j), kFirstSeq);
  }
  EXPECT_TRUE(e.quiescent());
}

TEST(Entity, TransmissionActionStampsSeqAckBuf) {
  StepHarness h(0, config3(), /*free_buf=*/77);
  h.submit({42});
  ASSERT_EQ(h.broadcasts.size(), 1u);
  const CoPdu p = *std::get<PduRef>(h.broadcasts[0]);
  EXPECT_EQ(p.src, 0);
  EXPECT_EQ(p.seq, kFirstSeq);
  EXPECT_EQ(p.ack, (std::vector<SeqNo>{1, 1, 1}));
  EXPECT_EQ(p.buf, 77u);
  EXPECT_EQ(p.data, (std::vector<std::uint8_t>{42}));
  EXPECT_EQ(h.core().next_seq(), kFirstSeq + 1);
  EXPECT_EQ(h.traced_sends, (std::vector<PduKey>{{0, 1}}));
}

TEST(Entity, AcceptanceAdvancesReqAndStoresAl) {
  StepHarness h(0, config3());
  CoCore& e = h.core();
  h.on_message(1, Message(make(1, 1, {5, 1, 3})));
  EXPECT_EQ(e.req(1), 2u);
  EXPECT_EQ(e.al(1, 0), 5u);
  EXPECT_EQ(e.al(1, 2), 3u);
  // Own AL row mirrors own REQ.
  EXPECT_EQ(e.al(0, 1), 2u);
  EXPECT_EQ(h.traced_accepts, (std::vector<PduKey>{{1, 1}}));
  EXPECT_EQ(e.rrl_size(1), 1u);
}

TEST(Entity, DuplicateIsDroppedSilently) {
  StepHarness h(0, config3());
  h.on_message(1, Message(make(1, 1, {1, 1, 1})));
  h.on_message(1, Message(make(1, 1, {1, 1, 1})));
  EXPECT_EQ(h.core().stats().duplicates_dropped, 1u);
  EXPECT_EQ(h.core().req(1), 2u);
  EXPECT_EQ(h.traced_accepts.size(), 1u);  // accepted exactly once
}

TEST(Entity, FailureCondition1ParksAndRequestsGap) {
  StepHarness h(0, config3());
  CoCore& e = h.core();
  // SEQ 3 arrives while REQ=1: PDUs 1..2 missing.
  h.on_message(1, Message(make(1, 3, {1, 4, 1})));
  EXPECT_EQ(e.stats().f1_detections, 1u);
  EXPECT_EQ(e.req(1), 1u);  // not accepted
  const auto rets = h.ret_broadcasts();
  ASSERT_EQ(rets.size(), 1u);
  EXPECT_EQ(rets[0].lsrc, 1);
  EXPECT_EQ(rets[0].lseq, 3u);
  EXPECT_EQ(rets[0].ack, (std::vector<SeqNo>{1, 1, 1}));
  // The gap fills: both parked and fresh PDUs are accepted in order.
  h.on_message(1, Message(make(1, 1, {1, 2, 1})));
  h.on_message(1, Message(make(1, 2, {1, 3, 1})));
  EXPECT_EQ(e.req(1), 4u);  // 1, 2 accepted + parked 3 drained
  EXPECT_EQ(e.stats().pdus_accepted, 3u);
}

TEST(Entity, FailureCondition2DetectsThirdPartyLoss) {
  StepHarness h(0, config3());
  // E1's PDU says it has accepted E2's PDUs up to 3 (ACK_2 = 4); we have
  // none of them.
  h.on_message(1, Message(make(1, 1, {1, 1, 4})));
  EXPECT_GE(h.core().stats().f2_detections, 1u);
  const auto rets = h.ret_broadcasts();
  ASSERT_EQ(rets.size(), 1u);
  EXPECT_EQ(rets[0].lsrc, 2);
  EXPECT_EQ(rets[0].lseq, 4u);
}

TEST(Entity, RetRequestsAreDeduplicated) {
  StepHarness h(0, config3());
  h.on_message(1, Message(make(1, 3, {1, 4, 1})));
  h.on_message(1, Message(make(1, 4, {1, 5, 1})));  // same gap, longer
  // Second detection must not re-request: the hole is still [1,3).
  EXPECT_EQ(h.ret_broadcasts().size(), 1u);
}

TEST(Entity, RetransmissionActionResendsExactRange) {
  StepHarness h(0, config3());
  for (int i = 0; i < 4; ++i) h.submit({static_cast<std::uint8_t>(i)});
  h.broadcasts.clear();
  RetPdu r;
  r.cid = 1;
  r.src = 2;
  r.lsrc = 0;
  r.lseq = 4;          // wants [2, 4)
  r.ack = {2, 1, 1};   // requester's REQ_0 = 2
  r.buf = 4096;
  h.on_message(2, Message(r));
  const auto resent = h.data_broadcasts();
  ASSERT_EQ(resent.size(), 2u);
  EXPECT_EQ(resent[0].seq, 2u);
  EXPECT_EQ(resent[1].seq, 3u);
  EXPECT_EQ(h.core().stats().retransmissions_sent, 2u);
  // Retransmissions must NOT be traced as new sends.
  EXPECT_EQ(h.traced_sends.size(), 4u);
}

TEST(Entity, RetForOthersOnlyUpdatesKnowledge) {
  StepHarness h(0, config3());
  RetPdu r;
  r.cid = 1;
  r.src = 2;
  r.lsrc = 1;  // someone else's loss
  r.lseq = 3;
  r.ack = {1, 3, 1};
  h.on_message(2, Message(r));
  EXPECT_EQ(h.core().stats().retransmissions_sent, 0u);
  // But the RET's ACK vector refreshed our AL row for E2.
  EXPECT_EQ(h.core().al(2, 1), 3u);
}

// --- Paper Example 4.1, observed from E2 (index 1) ------------------------

class PaperExampleTest : public ::testing::Test {
 protected:
  // Table 1 PDUs; cluster <E1,E2,E3> = indices 0,1,2. E2 (us) sends d, g.
  CoConfig cfg = config3();
  std::unique_ptr<StepHarness> h;

  void SetUp() override {
    // The paper's example piggybacks E2's confirmations on d and g rather
    // than standalone ack-only PDUs; keep the heard-all fast path off so
    // the SEQ numbers line up with Table 1.
    cfg.confirm_on_heard_all = false;
    cfg.defer_timeout = 1000 * time::kMillisecond;
    h = std::make_unique<StepHarness>(1, cfg);
  }

  void feed(const CoPdu& p) { h->on_message(p.src, Message(p)); }

  CoPdu a = make(0, 1, {1, 1, 1});
  CoPdu b = make(2, 1, {2, 1, 1});
  CoPdu c = make(0, 2, {2, 1, 1});
  CoPdu e = make(0, 3, {3, 2, 2});
  CoPdu f = make(0, 4, {4, 2, 2});
  CoPdu g2 = make(2, 2, {5, 3, 2});
};

TEST_F(PaperExampleTest, TransmissionAcksMatchTable1) {
  // E2 receives a, c (E1) and b (E3), then sends d: Table 1 says
  // d.ACK = <3,1,2>.
  feed(a);
  feed(c);
  feed(b);
  h->submit({0xd});
  auto sent = h->data_broadcasts();
  ASSERT_GE(sent.size(), 1u);
  const CoPdu d = sent.back();
  EXPECT_EQ(d.seq, 1u);
  EXPECT_EQ(d.ack, (std::vector<SeqNo>{3, 1, 2}));

  // Loopback-accept own d, receive e, then send g: Table 1: g.ACK = <4,2,2>.
  feed(d);
  feed(e);
  h->broadcasts.clear();
  h->submit({0xe});
  sent = h->data_broadcasts();
  // The submit may be preceded by deferred confirmations; find the data PDU.
  ASSERT_FALSE(sent.empty());
  const CoPdu g = sent.back();
  EXPECT_EQ(g.seq, 2u);
  EXPECT_EQ(g.ack, (std::vector<SeqNo>{4, 2, 2}));
}

TEST_F(PaperExampleTest, Example41StateAfterH) {
  feed(a);
  feed(c);
  feed(b);
  h->submit({0xd});
  const CoPdu d = h->data_broadcasts().back();
  feed(d);
  feed(e);
  h->submit({0xe});
  const CoPdu g = h->data_broadcasts().back();
  feed(f);
  feed(g);
  feed(g2);

  CoCore& e2 = h->core();
  // Paper: when h is accepted, REQ = <5,3,3>.
  EXPECT_EQ(e2.req(0), 5u);
  EXPECT_EQ(e2.req(1), 3u);
  EXPECT_EQ(e2.req(2), 3u);

  // minAL = <4,2,2>: AL rows are E1's last ACK (f: <4,2,2>), our own REQ
  // (<5,3,3>), E3's last ACK (h: <5,3,2>).
  EXPECT_EQ(e2.min_al(0), 4u);
  EXPECT_EQ(e2.min_al(1), 2u);
  EXPECT_EQ(e2.min_al(2), 2u);

  // Pre-acknowledged: a, c, e (E1 seqs < 4), d (own seq < 2), b (E3 seq < 2)
  // — "four PDUs b, c, d, and e are pre-acknowledged" beyond a, giving the
  // paper's CPI order <a c b d e]. The pre-acknowledgments also raise
  // minPAL_1 to 2 (PAL rows e:<3,2,2>, d:<3,1,2>, b:<2,1,1>), so `a`
  // (seq 1 < 2) immediately satisfies the ACK condition and is delivered —
  // the paper's Fig. 7(b) draws the state just before that final step.
  ASSERT_EQ(h->delivered.size(), 1u);
  EXPECT_EQ(h->delivered[0].key(), a.key());
  ASSERT_EQ(e2.prl_size(), 4u);
  EXPECT_EQ(e2.prl().at(0).key(), c.key());
  EXPECT_EQ(e2.prl().at(1).key(), b.key());
  EXPECT_EQ(e2.prl().at(2).key(), d.key());
  EXPECT_EQ(e2.prl().at(3).key(), e.key());
  EXPECT_TRUE(e2.prl().causality_preserved());

  // minPAL matches Example 4.2's intermediate state.
  EXPECT_EQ(e2.min_pal(0), 2u);
  EXPECT_EQ(e2.min_pal(1), 1u);
  EXPECT_EQ(e2.min_pal(2), 1u);

  // f, g, h remain in the RRLs (not yet pre-acknowledged).
  EXPECT_EQ(e2.rrl_size(0), 1u);  // f
  EXPECT_EQ(e2.rrl_size(1), 1u);  // g
  EXPECT_EQ(e2.rrl_size(2), 1u);  // h
}

TEST(Entity, FlowConditionHonoursWindow) {
  auto cfg = config3();
  cfg.window = 3;
  StepHarness h(0, cfg);
  for (int i = 0; i < 10; ++i) h.submit({1});
  EXPECT_EQ(h.data_broadcasts().size(), 3u);
  EXPECT_EQ(h.core().app_queue_depth(), 7u);
  EXPECT_GE(h.core().stats().flow_blocked, 1u);
}

TEST(Entity, FlowConditionHonoursPeerBuffer) {
  auto cfg = config3();
  cfg.window = 8;
  cfg.assumed_peer_buffer = 12;  // 12/(1*2*3) = 2 PDU window
  StepHarness h(0, cfg);
  for (int i = 0; i < 10; ++i) h.submit({1});
  EXPECT_EQ(h.data_broadcasts().size(), 2u);
}

TEST(Entity, WindowReopensOnConfirmation) {
  auto cfg = config3();
  cfg.window = 2;
  StepHarness h(0, cfg);
  for (int i = 0; i < 4; ++i) h.submit({1});
  auto sent = h.data_broadcasts();
  ASSERT_EQ(sent.size(), 2u);
  // Loop back our own copies (minAL includes our own REQ row).
  h.on_message(0, Message(sent[0]));
  h.on_message(0, Message(sent[1]));
  // Peers confirm both PDUs (their ACK_0 = 3): window reopens.
  h.on_message(1, Message(make(1, 1, {3, 1, 1})));
  h.on_message(2, Message(make(2, 1, {3, 1, 1})));
  EXPECT_EQ(h.data_broadcasts().size(), 4u);
}

TEST(Entity, DeferTimerSendsConfirmation) {
  StepHarness h(0, config3());
  h.on_message(1, Message(make(1, 1, {1, 2, 1})));
  EXPECT_EQ(h.broadcasts.size(), 0u);  // nothing owed yet beyond timer
  // Bounded run: the defer timer re-arms as a tail-loss probe while data
  // interest persists, so the timer wheel never drains on its own.
  h.run_until(h.now() + 2 * time::kMillisecond);
  const auto sent = h.data_broadcasts();
  ASSERT_GE(sent.size(), 1u);
  EXPECT_FALSE(sent[0].is_data());
  EXPECT_EQ(sent[0].ack, (std::vector<SeqNo>{1, 2, 1}));
}

TEST(Entity, RetryTimerRerequestsLostRetransmission) {
  StepHarness h(0, config3());
  h.on_message(1, Message(make(1, 2, {1, 3, 1})));  // gap: seq 1 missing
  EXPECT_EQ(h.ret_broadcasts().size(), 1u);
  h.run_until(h.now() + 20 * time::kMillisecond);
  EXPECT_GE(h.ret_broadcasts().size(), 2u);  // re-requested on timer
  EXPECT_GE(h.core().stats().ret_retries, 1u);
}

TEST(Entity, TwoRoundsOfConfirmationsDeliverAndPruneOwnData) {
  // Full acknowledgment walkthrough at the sender E0 (n=3), §4.4-§4.5:
  // the data PDU is delivered to E0's own application only after two rounds
  // of cluster confirmations, and the sent log prunes it once everyone is
  // known to have pre-acknowledged it.
  StepHarness h(0, config3());
  CoCore& e = h.core();
  h.submit({1});
  ASSERT_EQ(h.data_broadcasts().size(), 1u);
  const CoPdu own = h.data_broadcasts()[0];
  h.on_message(0, Message(own));  // loopback copy of our own PDU
  EXPECT_EQ(e.sent_log_size(), 1u);

  // Round 1: both peers confirm acceptance of our PDU (ACK_0 = 2).
  h.on_message(1, Message(make(1, 1, {2, 1, 1}, {})));
  h.on_message(2, Message(make(2, 1, {2, 1, 1}, {})));
  EXPECT_TRUE(h.delivered.empty());  // pre-acknowledged at best
  // Hearing from everyone with data in flight triggers our own
  // confirmation; loop its copy back as the network would.
  const auto sent_now = h.data_broadcasts();
  ASSERT_GE(sent_now.size(), 2u);
  const CoPdu own_ctrl = sent_now.back();
  EXPECT_FALSE(own_ctrl.is_data());
  h.on_message(0, Message(own_ctrl));

  // Round 2: peers confirm the round-1 confirmations (ACK = <3,2,2>).
  h.on_message(1, Message(make(1, 2, {3, 2, 2}, {})));
  const std::size_t before_delivery = h.broadcasts.size();
  h.on_message(2, Message(make(2, 2, {3, 2, 2}, {})));

  // Our data PDU is now acknowledged: delivered to our own application,
  // and pruned from the sent log (minPAL_0 exceeds its SEQ).
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].key(), (PduKey{0, 1}));
  EXPECT_GE(e.min_pal(0), 2u);
  // The delivering step still sends the successor our round-1
  // confirmation owes: peers pre-acknowledge it only once a later PDU of
  // ours carries ACK_0 past it. Exactly one ack-only PDU, SEQ 3.
  ASSERT_EQ(h.broadcasts.size(), before_delivery + 1);
  const CoPdu successor = h.data_broadcasts().back();
  EXPECT_FALSE(successor.is_data());
  EXPECT_EQ(successor.key(), (PduKey{0, 3}));
  EXPECT_EQ(successor.ack, (std::vector<SeqNo>{3, 3, 3}));
  // The sent log holds the two ack-only PDUs [2, 4); the data PDU is gone.
  EXPECT_EQ(e.next_seq(), 4u);
  EXPECT_EQ(e.sent_log_size(), 2u);
}

TEST(Entity, DeliveringEntitySendsTheSuccessorItOwesThenOnlyTheTimer) {
  // n = 2, at the source E0. Its receipts complete the heard-all set and
  // the ACK condition in one step; having lost its data interest in that
  // step, it must still send the one PDU its peer needs to pre-acknowledge
  // E0's round-1 confirmation. After that nothing is owed: ack-only
  // receipts arm the defer timer but never fire the fast path.
  CoConfig c = config3();
  c.n = 2;
  StepHarness h(0, c);
  CoCore& e = h.core();
  h.submit({1});                                          // d, SEQ 1
  h.on_message(0, Message(h.data_broadcasts().back()));  // loopback
  h.on_message(1, Message(make(1, 1, {2, 1}, {})));      // E1 confirms d
  ASSERT_EQ(h.ctrl_count(), 1u);  // heard all with data in flight
  const CoPdu round1 = h.data_broadcasts().back();
  EXPECT_EQ(round1.key(), (PduKey{0, 2}));
  h.on_message(0, Message(round1));
  EXPECT_TRUE(h.delivered.empty());

  // E1's second confirmation (ACK = <3,2>) completes E0's heard-all set
  // and its ACK condition in the same step.
  h.on_message(1, Message(make(1, 2, {3, 2}, {})));
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_FALSE(e.has_data_interest());
  ASSERT_EQ(h.ctrl_count(), 2u);  // exactly one ack-only PDU in that step
  const CoPdu successor = h.data_broadcasts().back();
  EXPECT_EQ(successor.key(), (PduKey{0, 3}));
  EXPECT_EQ(successor.ack, (std::vector<SeqNo>{3, 3}));
  h.on_message(0, Message(successor));

  // Nothing in flight and no successor owed: further ack-only receipts
  // send nothing at once; only the defer timer remains.
  h.on_message(1, Message(make(1, 3, {4, 3}, {})));
  h.on_message(1, Message(make(1, 4, {4, 4}, {})));
  EXPECT_EQ(h.broadcasts.size(), 3u);  // d, round 1, successor
  EXPECT_TRUE(e.timer_pending(TimerId::kDefer));
  h.run_until(h.now() + c.defer_timeout - 1);
  EXPECT_EQ(h.broadcasts.size(), 3u);
  h.run_until(h.now() + 1);
  ASSERT_EQ(h.broadcasts.size(), 4u);
  EXPECT_FALSE(h.data_broadcasts().back().is_data());
}

TEST(Entity, RejectsMalformedConstruction) {
  CoConfig bad = config3();
  bad.n = 1;
  EXPECT_THROW(CoCore(0, bad), std::logic_error);
  CoConfig cfg = config3();
  EXPECT_THROW(CoCore(5, cfg), std::logic_error);
}

TEST(Entity, RejectsEmptyDataSubmission) {
  StepHarness h(0, config3());
  EXPECT_THROW(h.submit({}), std::logic_error);
}

TEST(Entity, PduFromWrongChannelRejected) {
  StepHarness h(0, config3());
  EXPECT_THROW(h.on_message(2, Message(make(1, 1, {1, 1, 1}))),
               std::logic_error);
}

}  // namespace
}  // namespace co::proto

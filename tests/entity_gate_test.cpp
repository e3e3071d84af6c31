// Focused unit tests for the causal pre-acknowledgment gate and the
// control-traffic congestion guard (DESIGN.md deviations #2 and #4),
// driven sans-io through CoCore::step() via the StepHarness.
#include <gtest/gtest.h>

#include "src/co/core.h"
#include "tests/step_harness.h"

namespace co::proto {
namespace {

CoPdu make(EntityId src, SeqNo seq, std::vector<SeqNo> ack) {
  CoPdu p;
  p.cid = 1;
  p.src = src;
  p.seq = seq;
  p.ack = std::move(ack);
  p.buf = 1u << 20;
  p.data = {1};
  return p;
}

TEST(CausalGate, ThirdPartyDependencyHoldsPreAck) {
  // Observer = E0; b = E1#1; q = E2#1 with q.ack[1]=2 (E2 accepted b, so
  // b ≺ q by Thm 4.1). Confirmations arrive such that q's PACK condition
  // (minAL_2 > 1) holds while b's (minAL_1 > 1) does NOT — E3 has not
  // confirmed accepting b. The bare paper rules would pre-acknowledge q
  // ahead of its causal predecessor; the gate must hold it in RRL_2.
  CoConfig cfg;
  cfg.n = 4;
  cfg.window = 8;
  cfg.assumed_peer_buffer = 1u << 20;
  StepHarness h(0, cfg, /*free_buf=*/1u << 20);
  CoCore& e0 = h.core();

  h.on_message(1, Message(make(1, 1, {1, 1, 1, 1})));  // b
  h.on_message(2, Message(make(2, 1, {1, 2, 1, 1})));  // q (depends on b)
  h.on_message(2, Message(make(2, 2, {1, 2, 2, 1})));  // P's confirmation
  h.on_message(3, Message(make(3, 1, {1, 1, 2, 1})));  // A accepted q, NOT b
  h.on_message(1, Message(make(1, 2, {1, 2, 2, 1})));  // B's confirmation

  // PACK condition for q holds (everyone accepted E2#1)...
  EXPECT_GT(e0.min_al(2), 1u);
  // ...but not for b (E3's confirmations still say REQ_1 = 1).
  EXPECT_EQ(e0.min_al(1), 1u);
  // The gate therefore keeps q (and everything behind it) in RRL_2.
  EXPECT_EQ(e0.prl_size(), 0u);
  EXPECT_GE(e0.rrl_size(2), 2u);

  // E3 finally confirms b: b pre-acks, which unlocks q in the same PACK
  // fixpoint — and the PRL orders b strictly before q.
  h.on_message(3, Message(make(3, 2, {2, 2, 2, 2})));
  ASSERT_GE(e0.prl_size(), 2u);
  EXPECT_EQ(e0.prl().at(0).key(), (PduKey{1, 1}));  // b first
  bool saw_q_after_b = false;
  for (std::size_t i = 1; i < e0.prl_size(); ++i)
    if (e0.prl().at(i).key() == (PduKey{2, 1})) saw_q_after_b = true;
  EXPECT_TRUE(saw_q_after_b);
  EXPECT_TRUE(e0.prl().causality_preserved());
}

TEST(CausalGate, DisabledReproducesBarePaperBehaviour) {
  CoConfig cfg;
  cfg.n = 4;
  cfg.window = 8;
  cfg.assumed_peer_buffer = 1u << 20;
  cfg.mutation = Mutation::kNoCausalGate;
  StepHarness h(0, cfg, /*free_buf=*/1u << 20);
  h.on_message(1, Message(make(1, 1, {1, 1, 1, 1})));
  h.on_message(2, Message(make(2, 1, {1, 2, 1, 1})));
  h.on_message(2, Message(make(2, 2, {1, 2, 2, 1})));
  h.on_message(3, Message(make(3, 1, {1, 1, 2, 1})));
  h.on_message(1, Message(make(1, 2, {1, 2, 2, 1})));
  // Without the gate, q is pre-acknowledged ahead of its dependency b.
  EXPECT_GE(h.core().prl_size(), 1u);
  EXPECT_EQ(h.core().prl().at(0).key(), (PduKey{2, 1}));
}

TEST(CtrlRateLimit, BacklogThrottlesAckOnlyTraffic) {
  // The guard binds once the entity's own UNCONFIRMED backlog reaches
  // max(2W, 16) SEQs — data alone cannot reach it (the flow condition caps
  // data at W), so this is specifically a brake on ack-only pileup: after
  // ~16 unconfirmed ctrl PDUs, further ones are paced at one per
  // retransmit_timeout instead of one per defer_timeout.
  CoConfig cfg;
  cfg.n = 3;
  cfg.window = 1;  // cap = max(2W, 16) = 16
  cfg.defer_timeout = 100 * time::kMicrosecond;
  cfg.retransmit_timeout = 2 * time::kMillisecond;
  cfg.assumed_peer_buffer = 1u << 20;
  StepHarness h(0, cfg, /*free_buf=*/1u << 20);
  // 100 rounds of incoming data (never confirming anything of ours) keep
  // confirmations owed; the defer timer fires every 100 us.
  for (int round = 0; round < 100; ++round) {
    h.on_message(1, Message(make(1, 1 + static_cast<SeqNo>(round),
                                 {1, static_cast<SeqNo>(round) + 2, 1})));
    h.run_until(h.now() + cfg.defer_timeout);
  }
  // Unthrottled this would be ~100 ctrl PDUs. Allowed: ~16 to reach the
  // cap, then 10 ms / 2 ms = 5 more, plus slack.
  EXPECT_GE(h.ctrl_count(), 16u);
  EXPECT_LE(h.ctrl_count(), 16u + 5u + 3u);
}

}  // namespace
}  // namespace co::proto

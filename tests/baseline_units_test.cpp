// Entity-level unit tests for the two baseline protocols (the
// integration behaviour is covered by baselines_test.cpp).
#include <gtest/gtest.h>

#include "src/baselines/cbcast.h"
#include "src/baselines/to_protocol.h"
#include "src/sim/scheduler.h"

namespace co::baselines {
namespace {

// --- CBCAST -----------------------------------------------------------------

struct CbEnv {
  std::vector<CbcastMsg> broadcasts;
  std::vector<causality::PduKey> delivered;

  CbcastEntity make(EntityId self, std::size_t n) {
    return CbcastEntity(
        self, n, [this](CbcastMsg m) { broadcasts.push_back(std::move(m)); },
        [this](const CbcastMsg& m) { delivered.push_back(m.key()); });
  }
};

TEST(CbcastEntityTest, BroadcastStampsAndSelfDelivers) {
  CbEnv env;
  auto e = env.make(1, 3);
  e.broadcast({1, 2, 3});
  ASSERT_EQ(env.broadcasts.size(), 1u);
  EXPECT_EQ(env.broadcasts[0].src, 1);
  EXPECT_EQ(env.broadcasts[0].seq, 1u);
  EXPECT_EQ(env.broadcasts[0].vt[1], 1u);
  ASSERT_EQ(env.delivered.size(), 1u);  // BSS self-delivery
  EXPECT_EQ(env.delivered[0], (causality::PduKey{1, 1}));
}

TEST(CbcastEntityTest, InOrderMessageDeliversImmediately) {
  CbEnv env0, env1;
  auto sender = env0.make(0, 2);
  auto receiver = env1.make(1, 2);
  sender.broadcast({1});
  receiver.on_message(env0.broadcasts[0]);
  ASSERT_EQ(env1.delivered.size(), 1u);
  EXPECT_EQ(receiver.delay_queue_size(), 0u);
}

TEST(CbcastEntityTest, CausalGapDelaysDelivery) {
  // m2 depends on m1; deliver m2 first -> delayed until m1 arrives.
  CbEnv env0, env1, env2;
  auto a = env0.make(0, 3);
  auto b = env1.make(1, 3);
  auto c = env2.make(2, 3);
  a.broadcast({1});                    // m1
  b.on_message(env0.broadcasts[0]);    // b has m1
  b.broadcast({2});                    // m2 (depends on m1)
  c.on_message(env1.broadcasts[0]);    // m2 arrives at c FIRST
  EXPECT_EQ(env2.delivered.size(), 0u);
  EXPECT_EQ(c.delay_queue_size(), 1u);
  EXPECT_EQ(c.stats().delayed, 1u);
  c.on_message(env0.broadcasts[0]);    // m1 arrives
  ASSERT_EQ(env2.delivered.size(), 2u);
  EXPECT_EQ(env2.delivered[0], (causality::PduKey{0, 1}));
  EXPECT_EQ(env2.delivered[1], (causality::PduKey{1, 1}));
  EXPECT_EQ(c.delay_queue_size(), 0u);
}

TEST(CbcastEntityTest, OwnLoopbackCopyIgnored) {
  CbEnv env;
  auto e = env.make(0, 2);
  e.broadcast({1});
  e.on_message(env.broadcasts[0]);  // network loopback
  EXPECT_EQ(env.delivered.size(), 1u);  // not delivered twice
}

// --- TO (go-back-n) ----------------------------------------------------------

struct ToEnv {
  sim::Scheduler sched;
  std::vector<ToMessage> broadcasts;
  std::vector<causality::PduKey> delivered;

  ToEntity make(EntityId self, std::size_t n) {
    return ToEntity(
        self, n, 1 * sim::kMillisecond,
        [this](ToMessage m) { broadcasts.push_back(std::move(m)); },
        [this](const ToPdu& p) { delivered.push_back(p.key()); },
        [this](sim::SimDuration d, std::function<void()> fn) {
          sched.schedule_after(d, std::move(fn));
        });
  }

  std::size_t count_pdus() const {
    std::size_t c = 0;
    for (const auto& m : broadcasts)
      if (std::holds_alternative<ToPdu>(m)) ++c;
    return c;
  }
  std::size_t count_rets() const {
    std::size_t c = 0;
    for (const auto& m : broadcasts)
      if (std::holds_alternative<ToRet>(m)) ++c;
    return c;
  }
};

ToPdu to_pdu(EntityId src, SeqNo seq) {
  ToPdu p;
  p.src = src;
  p.seq = seq;
  p.data = {1};
  return p;
}

TEST(ToEntityTest, OutOfOrderIsDiscardedNotParked) {
  ToEnv env;
  auto e = env.make(0, 2);
  e.on_message(1, ToMessage(to_pdu(1, 2)));  // gap: expects 1
  EXPECT_EQ(env.delivered.size(), 0u);
  EXPECT_EQ(e.stats().discarded_out_of_order, 1u);
  EXPECT_EQ(env.count_rets(), 1u);
  // The discarded PDU must be RESENT (go-back-n), unlike selective repeat:
  e.on_message(1, ToMessage(to_pdu(1, 1)));
  EXPECT_EQ(env.delivered.size(), 1u);  // seq 2 was NOT retained
  e.on_message(1, ToMessage(to_pdu(1, 2)));
  EXPECT_EQ(env.delivered.size(), 2u);
}

TEST(ToEntityTest, GoBackNResendsWholeSuffix) {
  ToEnv env;
  auto e = env.make(0, 2);
  for (int i = 0; i < 6; ++i) e.broadcast({1});
  env.broadcasts.clear();
  e.on_message(1, ToMessage(ToRet{1, 0, 3}));  // E1 asks: go back to 3
  // Everything from 3 through 6 is rebroadcast.
  EXPECT_EQ(env.count_pdus(), 4u);
  EXPECT_EQ(e.stats().retransmissions_sent, 4u);
}

TEST(ToEntityTest, NakSuppressionAvoidsStorms) {
  ToEnv env;
  auto e = env.make(0, 2);
  for (SeqNo s = 5; s < 15; ++s)
    e.on_message(1, ToMessage(to_pdu(1, s)));  // ten out-of-order arrivals
  EXPECT_EQ(env.count_rets(), 1u);  // one NAK, not ten
}

TEST(ToEntityTest, StatusTimerRevealsLostTail) {
  ToEnv env;
  auto sender = env.make(0, 2);
  sender.broadcast({1});
  // Nothing arrives anywhere; after the status interval the sender
  // announces its high watermark so receivers can detect the loss.
  env.broadcasts.clear();
  env.sched.run_until(env.sched.now() + 3 * sim::kMillisecond);
  bool saw_status = false;
  for (const auto& m : env.broadcasts)
    if (const auto* st = std::get_if<ToStatus>(&m)) {
      saw_status = true;
      EXPECT_EQ(st->next_seq, 2u);
    }
  EXPECT_TRUE(saw_status);
}

TEST(ToEntityTest, StatusTriggersGoBackRequest) {
  ToEnv env;
  auto receiver = env.make(1, 2);
  receiver.on_message(0, ToMessage(ToStatus{0, 4}));  // E0 sent up to #3
  EXPECT_EQ(env.count_rets(), 1u);
  const auto& ret = std::get<ToRet>(env.broadcasts.back());
  EXPECT_EQ(ret.lsrc, 0);
  EXPECT_EQ(ret.from, 1u);
}

}  // namespace
}  // namespace co::baselines

// Unit tests for the host's TimerWheel: arm/cancel/pop semantics the
// shard's effect replay relies on.
#include <gtest/gtest.h>

#include "src/host/timer_wheel.h"

namespace co::host {
namespace {

using proto::TimerId;

TEST(TimerWheel, StartsEmpty) {
  TimerWheel w;
  EXPECT_FALSE(w.pending(TimerId::kDefer));
  EXPECT_FALSE(w.pending(TimerId::kRetransmit));
  EXPECT_EQ(w.next_deadline(), std::nullopt);
  EXPECT_EQ(w.pop_due(1'000'000), std::nullopt);
}

TEST(TimerWheel, ArmPopDisarms) {
  TimerWheel w;
  w.arm(TimerId::kDefer, 100);
  EXPECT_TRUE(w.pending(TimerId::kDefer));
  EXPECT_EQ(w.next_deadline(), 100);
  EXPECT_EQ(w.pop_due(99), std::nullopt);  // not yet due
  EXPECT_EQ(w.pop_due(100), TimerId::kDefer);
  EXPECT_FALSE(w.pending(TimerId::kDefer));
  EXPECT_EQ(w.pop_due(100), std::nullopt);  // one-shot
}

TEST(TimerWheel, RearmOverwritesDeadline) {
  TimerWheel w;
  w.arm(TimerId::kRetransmit, 500);
  w.arm(TimerId::kRetransmit, 200);  // core cancels before re-arm; overwrite
  EXPECT_EQ(w.next_deadline(), 200);
  EXPECT_EQ(w.pop_due(300), TimerId::kRetransmit);
  EXPECT_EQ(w.pop_due(600), std::nullopt);  // old deadline is gone
}

TEST(TimerWheel, CancelAfterFireIsNoOp) {
  TimerWheel w;
  w.arm(TimerId::kDefer, 100);
  EXPECT_EQ(w.pop_due(100), TimerId::kDefer);
  w.cancel(TimerId::kDefer);  // already fired: must not throw or re-arm
  EXPECT_FALSE(w.pending(TimerId::kDefer));
  w.cancel(TimerId::kDefer);  // double cancel, same
  EXPECT_EQ(w.next_deadline(), std::nullopt);
}

TEST(TimerWheel, PopsEarliestFirst) {
  TimerWheel w;
  w.arm(TimerId::kDefer, 300);
  w.arm(TimerId::kRetransmit, 200);
  EXPECT_EQ(w.next_deadline(), 200);
  EXPECT_EQ(w.pop_due(400), TimerId::kRetransmit);
  EXPECT_EQ(w.pop_due(400), TimerId::kDefer);
}

TEST(TimerWheel, EqualDeadlinesTieBreakByArmOrder) {
  // Mirrors the simulator scheduler's FIFO tie-break for equal-time events:
  // whichever timer was armed first fires first. A defer re-arm chain
  // (t+2ms, then +2ms again) can land on the same tick as a retransmit
  // deadline (t+4ms) armed earlier — the retransmit must fire first.
  TimerWheel w;
  w.arm(TimerId::kRetransmit, 100);
  w.arm(TimerId::kDefer, 100);
  EXPECT_EQ(w.pop_due(100), TimerId::kRetransmit);
  EXPECT_EQ(w.pop_due(100), TimerId::kDefer);

  w.arm(TimerId::kDefer, 200);
  w.arm(TimerId::kRetransmit, 200);
  EXPECT_EQ(w.pop_due(200), TimerId::kDefer);
  EXPECT_EQ(w.pop_due(200), TimerId::kRetransmit);
}

TEST(TimerWheel, PastDeadlinesFireOnNextPop) {
  // Deadlines may land in the past between event-loop polls.
  TimerWheel w;
  w.arm(TimerId::kDefer, 50);
  EXPECT_EQ(w.pop_due(10'000), TimerId::kDefer);
}

}  // namespace
}  // namespace co::host

// Unit tests: vector clocks.
#include <gtest/gtest.h>

#include "src/clocks/vector_clock.h"

namespace co::clocks {
namespace {

TEST(VectorClock, TickAffectsOnlyOwnComponent) {
  VectorClock v(3);
  v.tick(1);
  EXPECT_EQ(v[0], 0u);
  EXPECT_EQ(v[1], 1u);
  EXPECT_EQ(v[2], 0u);
}

TEST(VectorClock, CompareAllCases) {
  VectorClock a(2), b(2);
  EXPECT_EQ(VectorClock::compare(a, b), Order::kEqual);
  a.tick(0);
  EXPECT_EQ(VectorClock::compare(a, b), Order::kAfter);
  EXPECT_EQ(VectorClock::compare(b, a), Order::kBefore);
  b.tick(1);
  EXPECT_EQ(VectorClock::compare(a, b), Order::kConcurrent);
  EXPECT_TRUE(VectorClock::concurrent(a, b));
}

TEST(VectorClock, HappenedBeforeIsStrict) {
  VectorClock a(2);
  EXPECT_FALSE(VectorClock::happened_before(a, a));
  VectorClock b = a;
  b.tick(0);
  EXPECT_TRUE(VectorClock::happened_before(a, b));
  EXPECT_FALSE(VectorClock::happened_before(b, a));
}

TEST(VectorClock, ReceiveMergesAndTicks) {
  VectorClock a(3), b(3);
  a.tick(0);
  a.tick(0);       // a = <2,0,0>
  b.tick(1);       // b = <0,1,0>
  b.receive(1, a); // b = max + tick(1) = <2,2,0>
  EXPECT_EQ(b[0], 2u);
  EXPECT_EQ(b[1], 2u);
  EXPECT_EQ(b[2], 0u);
}

TEST(VectorClock, MessageChainEstablishesHappenedBefore) {
  // e1 at P0 -> m -> e2 at P1: VC(e1) < VC(e2).
  VectorClock p0(2), p1(2);
  p0.tick(0);
  const VectorClock stamp = p0;
  p1.receive(1, stamp);
  EXPECT_TRUE(VectorClock::happened_before(stamp, p1));
}

TEST(VectorClock, SizeMismatchThrows) {
  VectorClock a(2), b(3);
  EXPECT_THROW(a.merge(b), std::logic_error);
  EXPECT_THROW(VectorClock::compare(a, b), std::logic_error);
}

}  // namespace
}  // namespace co::clocks

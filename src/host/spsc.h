// SpscRing — bounded lock-free single-producer/single-consumer ring.
//
// The submission channel between an application thread and the shard that
// owns an entity (src/host/shard.h): the producer try_push()es, the shard
// thread try_pop()s, and neither side ever takes a lock or allocates. The
// ring is intentionally strict SPSC — one producer thread per entity is the
// host contract; callers needing several producers serialize them on their
// side.
//
// Memory order: the producer publishes a slot with a release store of the
// tail index; the consumer acquires it before reading the slot (and
// symmetrically for the head on the full-check path). Indices are
// monotonically increasing and wrap via power-of-two masking, so the
// full/empty tests are plain subtractions.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/expect.h"

namespace co::host {

template <typename T>
class SpscRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  /// Producer side. Returns false (value untouched) when the ring is full.
  bool try_push(T&& value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) == slots_.size())
      return false;
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (tail_.load(std::memory_order_acquire) == head) return false;
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Approximate occupancy (exact only from the producer or consumer
  /// thread; elsewhere momentarily stale).
  std::size_t size_approx() const {
    return tail_.load(std::memory_order_relaxed) -
           head_.load(std::memory_order_relaxed);
  }

  bool empty_approx() const { return size_approx() == 0; }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  // Head and tail live on separate cache lines so the producer's stores
  // never false-share with the consumer's.
  alignas(64) std::atomic<std::size_t> head_{0};  // next slot to pop
  alignas(64) std::atomic<std::size_t> tail_{0};  // next slot to fill
};

}  // namespace co::host

// The multi-channel (MC) network model — paper §2.3.
//
// Semantics reproduced from the paper:
//   * every RL_i is local-order-preserved: each (src,dst) channel is FIFO
//     and never corrupts or reorders PDUs;
//   * RL_i may NOT be information-preserved: the network is faster than the
//     entities, so PDUs arriving while a receiver's ingress buffer is full
//     are lost (buffer overrun) — "the PDU loss is considered as the most
//     failure in the networks";
//   * transmission itself is "almost error-free": there is no corruption and
//     (by default) no in-network loss, but benches can inject Bernoulli loss
//     to sweep loss rates deterministically.
//
// Receiver model: each entity has an ingress queue of `buffer_capacity`
// PDUs drained at one PDU per `service_time` (the entity's processing
// speed). With service_time == 0 the entity is infinitely fast and overrun
// never happens, which is exactly the "reliable network" ISIS assumes.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/expect.h"
#include "src/common/rng.h"
#include "src/net/delay.h"
#include "src/net/fault.h"
#include "src/net/stats.h"
#include "src/sim/scheduler.h"

namespace co::net {

struct McConfig {
  std::size_t n = 0;                         // cluster size (>= 2)
  DelayModel delay = DelayModel::fixed(0);   // link propagation delay
  sim::SimDuration loopback_delay = 0;       // self-delivery latency
  BufUnits buffer_capacity = 64;             // ingress buffer, PDU units
  sim::SimDuration service_time = 0;         // per-PDU processing time
  double injected_loss = 0.0;                // Bernoulli drop probability
  double injected_duplicates = 0.0;          // Bernoulli duplicate probability
  std::uint64_t seed = Rng::kDefaultSeed;    // loss-injection stream

  /// Reliable-network preset (ISIS substrate): nothing is ever dropped.
  static McConfig reliable(std::size_t n, sim::SimDuration delay) {
    McConfig c;
    c.n = n;
    c.delay = DelayModel::fixed(delay);
    c.buffer_capacity = std::numeric_limits<BufUnits>::max();
    c.service_time = 0;
    c.injected_loss = 0.0;
    return c;
  }
};

template <class Msg>
class McNetwork final {
 public:
  /// Invoked when a PDU reaches entity `self` (after queueing + service).
  using DeliverFn = std::function<void(EntityId src, const Msg& msg)>;

  McNetwork(sim::Scheduler& sched, McConfig config)
      : sched_(sched),
        config_(std::move(config)),
        loss_rng_(config_.seed),
        receivers_(config_.n) {
    CO_EXPECT_MSG(config_.n >= 2, "a cluster has at least two entities");
    for (std::size_t src = 0; src < config_.n; ++src)
      last_arrival_.emplace_back(config_.n, -1);
  }

  void attach(EntityId id, DeliverFn on_deliver) {
    auto& rx = receiver(id);
    CO_EXPECT_MSG(!rx.deliver, "entity attached twice");
    rx.deliver = std::move(on_deliver);
  }

  void broadcast(EntityId src, Msg msg) {
    CO_EXPECT(valid(src));
    ++stats_.broadcasts;
    for (std::size_t dst = 0; dst < config_.n; ++dst)
      transmit(src, static_cast<EntityId>(dst), msg);
  }

  /// Point-to-point variant (the networks are broadcast media, but the
  /// harness uses this to model, e.g., targeted retransmissions in ablations).
  void unicast(EntityId src, EntityId dst, Msg msg) {
    CO_EXPECT(valid(src) && valid(dst));
    transmit(src, dst, std::move(msg));
  }

  BufUnits free_buffer(EntityId id) const {
    const auto& rx = receiver(id);
    const std::size_t used = rx.queue.size();
    const BufUnits cap = effective_capacity(id, sched_.now());
    if (used >= cap) return 0;
    return cap - static_cast<BufUnits>(used);
  }

  const NetworkStats& stats() const { return stats_; }

  /// Current ingress-queue occupancy at `id` (PDUs buffered, not the
  /// high-watermark in stats) — sampled by the observability gauges.
  std::size_t ingress_queue_depth(EntityId id) const {
    return receiver(id).queue.size();
  }

  /// Force the next `count` PDUs addressed to `dst` from `src` to be lost
  /// (deterministic fault injection for tests).
  void force_drop(EntityId src, EntityId dst, std::uint64_t count = 1) {
    CO_EXPECT(valid(src) && valid(dst) && src != dst);
    forced_drops_.push_back(ForcedDrop{src, dst, count});
  }

  /// Install a time-targeted adversarial fault schedule (net/fault.h).
  /// Events apply on top of the Bernoulli loss/duplication configured in
  /// McConfig; loss bursts and buffer squeezes act at arrival time, jitter
  /// spikes and duplication storms at send time. Loopback traffic
  /// (src == dst) is exempt, matching the base failure model.
  void set_fault_schedule(FaultSchedule schedule) {
    faults_ = std::move(schedule);
  }
  const FaultSchedule& fault_schedule() const { return faults_; }

  const McConfig& config() const { return config_; }

 private:
  struct Receiver {
    DeliverFn deliver;
    std::deque<std::pair<EntityId, Msg>> queue;
    bool busy = false;
  };
  struct ForcedDrop {
    EntityId src;
    EntityId dst;
    std::uint64_t remaining;
  };

  bool valid(EntityId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < config_.n;
  }

  Receiver& receiver(EntityId id) {
    CO_EXPECT(valid(id));
    return receivers_[static_cast<std::size_t>(id)];
  }
  const Receiver& receiver(EntityId id) const {
    CO_EXPECT(valid(id));
    return receivers_[static_cast<std::size_t>(id)];
  }

  /// Effective ingress capacity at `dst` at time `t`: the configured
  /// capacity, clamped by any active buffer-squeeze fault.
  BufUnits effective_capacity(EntityId dst, sim::SimTime t) const {
    BufUnits cap = config_.buffer_capacity;
    for (const FaultEvent& f : faults_)
      if (f.kind == FaultEvent::Kind::kBufferSqueeze &&
          f.matches(kNoEntity, dst, t))
        cap = std::min(cap, f.capacity);
    return cap;
  }

  void transmit(EntityId src, EntityId dst, Msg msg) {
    ++stats_.pdus_sent;
    const bool self = (src == dst);
    // Duplicate injection: some media/retransmit layers deliver copies
    // twice; the protocol must be idempotent (it is — tests rely on this).
    if (!self && config_.injected_duplicates > 0.0 &&
        loss_rng_.next_bool(config_.injected_duplicates)) {
      ++stats_.duplicated_injected;
      Msg copy = msg;
      transmit_one(src, dst, std::move(copy));
    }
    if (!self) {
      for (const FaultEvent& f : faults_) {
        if (f.kind == FaultEvent::Kind::kDuplicationStorm &&
            f.matches(src, dst, sched_.now()) &&
            loss_rng_.next_bool(f.probability)) {
          ++stats_.duplicated_fault;
          Msg copy = msg;
          transmit_one(src, dst, std::move(copy));
        }
      }
    }
    transmit_one(src, dst, std::move(msg));
  }

  void transmit_one(EntityId src, EntityId dst, Msg msg) {
    const bool self = (src == dst);
    sim::SimDuration delay =
        self ? config_.loopback_delay : config_.delay.sample(src, dst);
    if (!self) {
      // Jitter spikes stretch matching channels at send time; the FIFO
      // clamp below keeps each channel local-order-preserved regardless.
      for (const FaultEvent& f : faults_) {
        if (f.kind == FaultEvent::Kind::kJitterSpike &&
            f.matches(src, dst, sched_.now()) && f.extra_delay > 0) {
          ++stats_.jittered_fault;
          delay += static_cast<sim::SimDuration>(loss_rng_.next_below(
              static_cast<std::uint64_t>(f.extra_delay) + 1));
        }
      }
    }
    // Enforce per-channel FIFO even under randomized delays: a PDU may not
    // arrive before one sent earlier on the same channel.
    sim::SimTime arrival = sched_.now() + delay;
    auto& last = last_arrival_[static_cast<std::size_t>(src)]
                              [static_cast<std::size_t>(dst)];
    if (arrival <= last) arrival = last + 1;
    last = arrival;
    sched_.schedule_at(arrival, [this, src, dst, m = std::move(msg)]() mutable {
      arrive(src, dst, std::move(m));
    });
  }

  bool should_force_drop(EntityId src, EntityId dst) {
    for (auto it = forced_drops_.begin(); it != forced_drops_.end(); ++it) {
      if (it->src == src && it->dst == dst && it->remaining > 0) {
        if (--it->remaining == 0) forced_drops_.erase(it);
        return true;
      }
    }
    return false;
  }

  bool fault_loss(EntityId src, EntityId dst, sim::SimTime t) {
    for (const FaultEvent& f : faults_)
      if (f.kind == FaultEvent::Kind::kLossBurst && f.matches(src, dst, t) &&
          loss_rng_.next_bool(f.probability))
        return true;
    return false;
  }

  void arrive(EntityId src, EntityId dst, Msg msg) {
    auto& rx = receiver(dst);
    const bool self = (src == dst);
    if (!self) {
      if (should_force_drop(src, dst) ||
          (config_.injected_loss > 0.0 &&
           loss_rng_.next_bool(config_.injected_loss))) {
        ++stats_.dropped_injected;
        return;
      }
      if (fault_loss(src, dst, sched_.now())) {
        ++stats_.dropped_fault;
        return;
      }
      // Buffer overrun: the defining failure mode of the MC service. Own
      // PDUs are looped back inside the entity and never contend for the
      // ingress buffer. A buffer-squeeze fault lowers the capacity the
      // overrun check sees.
      if (rx.queue.size() >= effective_capacity(dst, sched_.now())) {
        ++stats_.dropped_overrun;
        return;
      }
    }
    rx.queue.emplace_back(src, std::move(msg));
    stats_.max_queue_depth =
        std::max<std::uint64_t>(stats_.max_queue_depth, rx.queue.size());
    if (!rx.busy) start_service(dst);
  }

  void start_service(EntityId dst) {
    auto& rx = receiver(dst);
    CO_EXPECT(!rx.busy && !rx.queue.empty());
    rx.busy = true;
    sched_.schedule_after(config_.service_time,
                          [this, dst] { finish_service(dst); });
  }

  void finish_service(EntityId dst) {
    auto& rx = receiver(dst);
    CO_EXPECT(rx.busy && !rx.queue.empty());
    auto [src, msg] = std::move(rx.queue.front());
    rx.queue.pop_front();
    ++stats_.pdus_delivered;
    rx.busy = false;
    if (!rx.queue.empty()) start_service(dst);
    CO_EXPECT_MSG(rx.deliver, "PDU delivered to unattached entity");
    rx.deliver(src, msg);
  }

  sim::Scheduler& sched_;
  McConfig config_;
  Rng loss_rng_;
  NetworkStats stats_;
  std::vector<Receiver> receivers_;
  std::vector<std::vector<sim::SimTime>> last_arrival_;
  std::vector<ForcedDrop> forced_drops_;
  FaultSchedule faults_;
};

}  // namespace co::net

// One-channel network model — the substrate of the TO protocol [14,15].
//
// Paper §1: "The TO protocol provides the CO service by using a one-channel
// network like Ethernet where each entity receives PDUs in the same order
// while it may fail to receive some of them."
//
// All broadcasts are serialized onto a single logical channel; every entity
// observes the surviving PDUs in the same global order. Loss is modelled the
// same two ways as McNetwork (ingress-buffer overrun + injected Bernoulli).
#pragma once

#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/expect.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/net/stats.h"
#include "src/sim/scheduler.h"

namespace co::net {

struct OneChannelConfig {
  std::size_t n = 0;
  sim::SimDuration propagation_delay = 0;  // channel latency, same for all
  BufUnits buffer_capacity = 64;
  sim::SimDuration service_time = 0;
  double injected_loss = 0.0;
  std::uint64_t seed = Rng::kDefaultSeed;
};

template <class Msg>
class OneChannelNetwork final {
 public:
  /// Invoked when a PDU reaches entity `self` (after queueing + service).
  using DeliverFn = std::function<void(EntityId src, const Msg& msg)>;

  OneChannelNetwork(sim::Scheduler& sched, OneChannelConfig config)
      : sched_(sched),
        config_(config),
        loss_rng_(config.seed),
        receivers_(config.n) {
    CO_EXPECT(config_.n >= 2);
  }

  void attach(EntityId id, DeliverFn on_deliver) {
    auto& rx = receiver(id);
    CO_EXPECT(!rx.deliver);
    rx.deliver = std::move(on_deliver);
  }

  void broadcast(EntityId src, Msg msg) {
    CO_EXPECT(valid(src));
    ++stats_.broadcasts;
    // A single channel: the PDU occupies one slot in the global order; every
    // receiver sees surviving PDUs in this exact order.
    sim::SimTime arrival = sched_.now() + config_.propagation_delay;
    if (arrival <= last_arrival_) arrival = last_arrival_ + 1;
    last_arrival_ = arrival;
    sched_.schedule_at(arrival, [this, src, m = std::move(msg)]() mutable {
      arrive(src, std::move(m));
    });
  }

  BufUnits free_buffer(EntityId id) const {
    const auto& rx = receiver(id);
    if (rx.queue.size() >= config_.buffer_capacity) return 0;
    return config_.buffer_capacity - static_cast<BufUnits>(rx.queue.size());
  }

  const NetworkStats& stats() const { return stats_; }

  /// Global receive order observed so far (for tests: all receivers must
  /// deliver a subsequence of this).
  const std::vector<std::pair<EntityId, Msg>>& channel_log() const {
    return channel_log_;
  }

 private:
  struct Receiver {
    DeliverFn deliver;
    std::deque<std::pair<EntityId, Msg>> queue;
    bool busy = false;
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

  void arrive(EntityId src, Msg msg) {
    channel_log_.emplace_back(src, msg);
    for (std::size_t dst = 0; dst < config_.n; ++dst) {
      auto& rx = receivers_[dst];
      ++stats_.pdus_sent;
      const bool self = (static_cast<EntityId>(dst) == src);
      if (!self) {
        if (config_.injected_loss > 0.0 &&
            loss_rng_.next_bool(config_.injected_loss)) {
          ++stats_.dropped_injected;
          continue;
        }
        if (rx.queue.size() >= config_.buffer_capacity) {
          ++stats_.dropped_overrun;
          continue;
        }
      }
      rx.queue.emplace_back(src, msg);
      stats_.max_queue_depth =
          std::max<std::uint64_t>(stats_.max_queue_depth, rx.queue.size());
      if (!rx.busy) start_service(static_cast<EntityId>(dst));
    }
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
    CO_EXPECT(rx.deliver);
    rx.deliver(src, msg);
  }

  sim::Scheduler& sched_;
  OneChannelConfig config_;
  Rng loss_rng_;
  NetworkStats stats_;
  std::vector<Receiver> receivers_;
  std::vector<std::pair<EntityId, Msg>> channel_log_;
  sim::SimTime last_arrival_ = -1;
};

}  // namespace co::net

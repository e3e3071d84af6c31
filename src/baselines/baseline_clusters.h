// Ready-made cluster wiring for the two baseline protocols, the paper's
// comparators ISIS CBCAST and TO, mirroring proto::CoCluster so tests and
// benches can swap protocols symmetrically.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "src/baselines/cbcast.h"
#include "src/baselines/to_protocol.h"
#include "src/causality/checkers.h"
#include "src/causality/trace.h"
#include "src/common/expect.h"
#include "src/net/mc_network.h"
#include "src/net/one_channel.h"
#include "src/sim/scheduler.h"

namespace co::baselines {

/// ISIS CBCAST over a (normally reliable) MC network.
class CbcastCluster {
 public:
  CbcastCluster(std::size_t n, net::McConfig net_config)
      : n_(n), logs_(n), trace_(n) {
    net_config.n = n;
    network_ = std::make_unique<net::McNetwork<CbcastMsg>>(sched_, net_config);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<EntityId>(i);
      entities_.push_back(std::make_unique<CbcastEntity>(
          id, n,
          [this, id](CbcastMsg m) { network_->broadcast(id, std::move(m)); },
          [this, id](const CbcastMsg& m) {
            logs_[static_cast<std::size_t>(id)].push_back(m.key());
            trace_.on_accept(id, m.key());
          }));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<EntityId>(i);
      network_->attach(id, [this, id](EntityId, const CbcastMsg& m) {
        entities_[static_cast<std::size_t>(id)]->on_message(m);
      });
    }
  }

  void broadcast(EntityId i, std::vector<std::uint8_t> data) {
    auto& e = *entities_[static_cast<std::size_t>(i)];
    // Record the send in the oracle before the entity self-delivers.
    const causality::PduKey key{i, e.clock()[static_cast<std::size_t>(i)] + 1};
    trace_.on_send(i, key);
    sent_.push_back(key);
    e.broadcast(std::move(data));
  }
  void broadcast_text(EntityId i, std::string_view text) {
    broadcast(i, std::vector<std::uint8_t>(text.begin(), text.end()));
  }

  sim::Scheduler& scheduler() { return sched_; }
  net::McNetwork<CbcastMsg>& network() { return *network_; }
  CbcastEntity& entity(EntityId i) {
    return *entities_[static_cast<std::size_t>(i)];
  }
  const causality::TraceRecorder& oracle() const { return trace_; }
  const causality::DeliveryLog& log(EntityId i) const {
    return logs_[static_cast<std::size_t>(i)];
  }
  std::vector<causality::DeliveryLog> logs() const { return logs_; }
  const std::vector<causality::PduKey>& sent() const { return sent_; }

  bool all_delivered() const {
    for (const auto& l : logs_)
      if (l.size() != sent_.size()) return false;
    return true;
  }

  /// Run until everything is delivered everywhere or the event queue drains
  /// (CBCAST has no timers: on a lossy network it simply stalls — E7b).
  bool run(sim::SimTime deadline) {
    while (!all_delivered() && !sched_.idle() && sched_.now() <= deadline)
      sched_.step();
    return all_delivered();
  }

 private:
  std::size_t n_;
  sim::Scheduler sched_;
  std::unique_ptr<net::McNetwork<CbcastMsg>> network_;
  std::vector<std::unique_ptr<CbcastEntity>> entities_;
  std::vector<causality::DeliveryLog> logs_;
  std::vector<causality::PduKey> sent_;
  causality::TraceRecorder trace_;
};

/// TO protocol over the one-channel (Ethernet-like) network.
class ToCluster {
 public:
  ToCluster(std::size_t n, net::OneChannelConfig net_config,
            sim::SimDuration nak_timeout = 2 * sim::kMillisecond)
      : logs_(n) {
    net_config.n = n;
    network_ =
        std::make_unique<net::OneChannelNetwork<ToMessage>>(sched_, net_config);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<EntityId>(i);
      entities_.push_back(std::make_unique<ToEntity>(
          id, n, nak_timeout,
          [this, id](ToMessage m) { network_->broadcast(id, std::move(m)); },
          [this, id](const ToPdu& p) {
            logs_[static_cast<std::size_t>(id)].push_back(p.key());
          },
          [this](sim::SimDuration d, std::function<void()> fn) {
            sched_.schedule_after(d, std::move(fn));
          }));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<EntityId>(i);
      network_->attach(id, [this, id](EntityId from, const ToMessage& m) {
        entities_[static_cast<std::size_t>(id)]->on_message(from, m);
      });
    }
  }

  void broadcast(EntityId i, std::vector<std::uint8_t> data) {
    ++sent_;
    entities_[static_cast<std::size_t>(i)]->broadcast(std::move(data));
  }
  void broadcast_text(EntityId i, std::string_view text) {
    broadcast(i, std::vector<std::uint8_t>(text.begin(), text.end()));
  }

  sim::Scheduler& scheduler() { return sched_; }
  net::OneChannelNetwork<ToMessage>& network() { return *network_; }
  ToEntity& entity(EntityId i) {
    return *entities_[static_cast<std::size_t>(i)];
  }
  const causality::DeliveryLog& log(EntityId i) const {
    return logs_[static_cast<std::size_t>(i)];
  }
  std::vector<causality::DeliveryLog> logs() const { return logs_; }
  std::uint64_t sent() const { return sent_; }

  bool all_delivered() const {
    for (const auto& l : logs_)
      if (l.size() != sent_) return false;
    return true;
  }

  bool run(sim::SimTime deadline) {
    while (!all_delivered() && !sched_.idle() && sched_.now() <= deadline)
      sched_.step();
    return all_delivered();
  }

  ToStats aggregate_stats() const {
    ToStats agg;
    for (const auto& e : entities_) {
      const auto& s = e->stats();
      agg.data_pdus_sent += s.data_pdus_sent;
      agg.ret_pdus_sent += s.ret_pdus_sent;
      agg.retransmissions_sent += s.retransmissions_sent;
      agg.discarded_out_of_order += s.discarded_out_of_order;
      agg.duplicates_dropped += s.duplicates_dropped;
      agg.delivered += s.delivered;
      agg.processing_ns += s.processing_ns;
    }
    return agg;
  }

 private:
  sim::Scheduler sched_;
  std::unique_ptr<net::OneChannelNetwork<ToMessage>> network_;
  std::vector<std::unique_ptr<ToEntity>> entities_;
  std::vector<causality::DeliveryLog> logs_;
  std::uint64_t sent_ = 0;
};

}  // namespace co::baselines

// CoServiceOracle — the CO-service check for tests that run real hosts.
//
// One observer sees every entity's protocol records (Record::actor names
// the reporting entity) and feeds the happened-before oracle; the delivery
// callback keeps one log per entity of self-describing payloads
// (src/app/payload.h). check_co_service() maps each delivered payload back
// to its data PDU key and runs causality::check_co_service. host_test and
// udp_transport_test share it; each builds its own hosts around it:
//
//   CoServiceOracle oracle(n);
//   HostBuilder(n).proto(oracle_test_config()).observer(&oracle)
//       .deliver(oracle.deliver_fn()) ...
//   host->submit(e, oracle.next_payload(e));
//
// Records and deliveries arrive on shard threads, so the oracle and the
// logs sit behind one mutex.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/app/payload.h"
#include "src/causality/checkers.h"
#include "src/causality/trace.h"
#include "src/co/config.h"
#include "src/co/observer.h"
#include "src/host/shard.h"

namespace co::host {

/// The protocol config of the wire tests: fast timers, so loss recovers in
/// milliseconds, and peer buffers large enough never to block the flow.
inline proto::CoConfig oracle_test_config() {
  proto::CoConfig cfg;
  cfg.cid = 42;
  cfg.defer_timeout = 2 * time::kMillisecond;
  cfg.retransmit_timeout = 10 * time::kMillisecond;
  cfg.assumed_peer_buffer = 1u << 16;
  return cfg;
}

class CoServiceOracle final : public proto::CoObserver {
 public:
  explicit CoServiceOracle(std::size_t n)
      : n_(n), trace_(n), logs_(n), data_keys_(n), submissions_(n, 0) {}

  void on_event(const proto::Record& r) override {
    const auto event = static_cast<proto::EventId>(r.event);
    if (event != proto::EventId::kSend && event != proto::EventId::kAccept)
      return;
    const causality::PduKey k{r.origin, r.seq};
    const std::lock_guard<std::mutex> lock(mutex_);
    if (event == proto::EventId::kAccept) {
      trace_.on_accept(r.actor, k);
      return;
    }
    trace_.on_send(r.actor, k);
    if (r.arg == 1) data_keys_[static_cast<std::size_t>(r.actor)].push_back(k);
  }

  /// The hosts' deliver callback: appends to the delivering entity's log.
  DeliverFn deliver_fn() {
    return [this](EntityId at, EntityId, const std::vector<std::uint8_t>& d) {
      const std::lock_guard<std::mutex> lock(mutex_);
      logs_[static_cast<std::size_t>(at)].push_back(d);
    };
  }

  /// The next payload entity `at` submits, tagged (at, k) where k counts
  /// its submissions. Call from the entity's one producer thread.
  std::vector<std::uint8_t> next_payload(EntityId at,
                                         std::size_t bytes = 32) {
    const auto idx = submissions_[static_cast<std::size_t>(at)]++;
    return app::make_payload(at, idx, bytes);
  }

  std::size_t delivered_count(EntityId i) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return logs_[static_cast<std::size_t>(i)].size();
  }

  /// Wait until every entity delivered at least `expect` payloads.
  bool await_deliveries(std::size_t expect, std::chrono::milliseconds limit) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    for (;;) {
      bool done = true;
      for (std::size_t i = 0; i < n_; ++i)
        done &= delivered_count(static_cast<EntityId>(i)) >= expect;
      if (done) return true;
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// Full CO-service check against the oracle. The i-th payload an entity
  /// submitted corresponds to its i-th data send key (the shard transmits
  /// DT requests in FIFO order).
  std::optional<causality::Violation> check_co_service() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<causality::DeliveryLog> key_logs(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      for (const auto& bytes : logs_[i]) {
        const auto info = app::verify_payload(bytes);
        if (!info)
          return causality::Violation{"payload", static_cast<EntityId>(i),
                                      {}, {}, "corrupt payload"};
        const auto& keys = data_keys_[static_cast<std::size_t>(info->src)];
        if (info->index >= keys.size())
          return causality::Violation{"payload", static_cast<EntityId>(i),
                                      {}, {}, "delivery precedes send?!"};
        key_logs[i].push_back(keys[info->index]);
      }
    }
    std::vector<causality::PduKey> sent;
    for (const auto& ks : data_keys_)
      sent.insert(sent.end(), ks.begin(), ks.end());
    return causality::check_co_service(key_logs, sent, trace_);
  }

 private:
  std::size_t n_;
  std::mutex mutex_;
  causality::TraceRecorder trace_;
  std::vector<std::vector<std::vector<std::uint8_t>>> logs_;
  std::vector<std::vector<causality::PduKey>> data_keys_;
  std::vector<std::uint64_t> submissions_;
};

}  // namespace co::host

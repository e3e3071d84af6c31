// Real-transport measurement: the CO protocol over actual loopback UDP
// sockets (one host::Host, one shard thread per entity) — the closest this
// repo gets to the paper's workstation testbed. Reports wall-clock
// application-to-application latency (submit -> delivery at every entity)
// and goodput, loss-free and with 10% injected send loss.
//
// Unlike the simulator benches, these numbers include every real cost:
// serialization, syscalls, kernel scheduling, timer jitter.
#include <chrono>
#include <cstring>
#include <iostream>
#include <mutex>
#include <thread>

#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/host/host.h"

namespace {

using namespace co;
using namespace std::chrono_literals;

struct RunResult {
  bool completed = false;
  double latency_ms_mean = 0;
  double latency_ms_p99 = 0;
  double wall_ms = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t dropped = 0;
  std::uint64_t retransmitted = 0;
};

RunResult run(std::size_t n, int messages_per_node, double loss) {
  std::mutex mutex;
  OnlineStats latency_ms;
  PercentileSampler sampler;
  std::vector<std::uint64_t> delivered(n, 0);

  // Payload carries the send timestamp (steady_clock ns).
  const auto t0 = std::chrono::steady_clock::now();
  proto::CoConfig pcfg;
  pcfg.defer_timeout = 2 * time::kMillisecond;
  pcfg.retransmit_timeout = 10 * time::kMillisecond;
  host::HostBuilder builder(n);
  builder.proto(pcfg)
      .shards(n)  // one thread per entity
      .send_loss(loss, 17)
      .deliver([&](EntityId at, EntityId,
                   const std::vector<std::uint8_t>& data) {
        const auto now = std::chrono::steady_clock::now();
        std::uint64_t sent_ns = 0;
        std::memcpy(&sent_ns, data.data(), sizeof sent_ns);
        const double ms =
            (std::chrono::duration_cast<std::chrono::nanoseconds>(now - t0)
                 .count() -
             static_cast<double>(sent_ns)) /
            1e6;
        const std::lock_guard<std::mutex> lock(mutex);
        latency_ms.add(ms);
        sampler.add(ms);
        ++delivered[static_cast<std::size_t>(at)];
      });
  for (std::size_t i = 0; i < n; ++i) builder.entity(static_cast<EntityId>(i));
  auto host = builder.build();
  host->start();

  for (int m = 0; m < messages_per_node; ++m) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t now_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count();
      std::vector<std::uint8_t> payload(sizeof now_ns + 24, 0x5a);
      std::memcpy(payload.data(), &now_ns, sizeof now_ns);
      host->submit(static_cast<EntityId>(i), std::move(payload));
    }
    std::this_thread::sleep_for(1ms);  // ~n msgs/ms offered load
  }

  const std::uint64_t expect =
      static_cast<std::uint64_t>(messages_per_node) * n;
  const auto deadline = std::chrono::steady_clock::now() + 30'000ms;
  bool completed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      completed = true;
      for (const auto d : delivered) completed &= (d >= expect);
    }
    if (completed) break;
    std::this_thread::sleep_for(2ms);
  }
  host->stop();

  RunResult r;
  r.completed = completed;
  r.latency_ms_mean = latency_ms.mean();
  r.latency_ms_p99 = sampler.percentile(0.99);
  r.wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  const host::WireStats wire = host->total_wire_stats();
  r.datagrams = wire.datagrams_sent;
  r.dropped = wire.datagrams_dropped_injected;
  for (std::size_t i = 0; i < n; ++i)
    r.retransmitted +=
        host->protocol_stats(static_cast<EntityId>(i)).retransmissions_sent;
  return r;
}

}  // namespace

int main() {
  std::cout << "=== Real loopback-UDP deployment: app-to-app latency ===\n"
            << "(submit -> delivery wall-clock, all costs included; compare "
               "the SHAPE with the simulated Tap of bench_fig8)\n\n";
  co::Table table({"n", "loss", "latency mean [ms]", "p99 [ms]", "datagrams",
                   "dropped", "rtx", "completed"});
  struct Case {
    std::size_t n;
    double loss;
  };
  for (const Case c : {Case{2, 0.0}, Case{3, 0.0}, Case{5, 0.0},
                       Case{3, 0.10}}) {
    const auto r = run(c.n, 50, c.loss);
    table.add_row({co::Table::num(static_cast<std::uint64_t>(c.n)),
                   co::Table::num(c.loss, 2),
                   co::Table::num(r.latency_ms_mean, 2),
                   co::Table::num(r.latency_ms_p99, 2),
                   co::Table::num(r.datagrams), co::Table::num(r.dropped),
                   co::Table::num(r.retransmitted),
                   r.completed ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: a few ms mean (two confirmation rounds at "
               "the 2 ms defer cadence dominate, exactly the 2R structure of "
               "E2); loss adds retransmission tail latency at the p99.\n";
  return 0;
}

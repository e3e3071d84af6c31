// co_load — wire-level load driver for the sharded host runtime.
//
// Drives ONE process-local Host (N entities across S shards, real loopback
// UDP between them) with paced application submits and reports the
// deployable-path analogues of the paper's two cost figures:
//
//   * tap_ms   — submit -> delivery wall latency at every receiver
//     (percentiles over every delivery; the realtime Tap),
//   * tco_us_per_message — shard-thread CPU microseconds per delivered PDU
//     over the load window: process CPU minus the submitter thread's own
//     CPU (syscalls, encode/decode, protocol work and the shards' post-
//     activity spin included),
//
// plus throughput (deliveries/sec — each submit fans out to n deliveries;
// paced, this echoes rate x n rather than measuring a ceiling) and
// correctness counters: per-source FIFO order violations observed at the
// receivers (a necessary condition of CO delivery; zero required) and
// submission-ring rejections. The submitter sleeps until each submit is
// due on an absolute CLOCK_MONOTONIC deadline, so it holds no core between
// submits and its lateness never accumulates. EXPERIMENTS.md defines each
// figure.
//
// `--json PATH` writes the BENCH_wire.json document CI gates with
// scripts/check_bench_regression.py --wire-baseline.
#if defined(__linux__)
#include <sys/prctl.h>
#endif
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/stats.h"
#include "src/host/host.h"

namespace {

using namespace co;
using namespace std::chrono_literals;

struct Options {
  std::size_t entities = 8;
  std::size_t shards = 2;
  double seconds = 2.0;
  /// Paced application submits/sec across all entities (0 = unthrottled).
  std::uint64_t rate = 20000;
  std::size_t payload = 64;
  double loss = 0.0;
  SeqNo window = 64;
  /// Post-activity busy-poll window per shard (HostBuilder::poll_spin);
  /// negative = let the builder auto-size from the core count.
  std::int64_t spin_us = -1;
  /// Pin shard threads round-robin over the online CPUs.
  bool pin = false;
  std::string json_path;
};

/// Payload header: the measurement data every delivery carries back.
struct Header {
  std::uint64_t send_ns = 0;  // steady_clock ns since t0
  std::int32_t src = 0;
  std::uint64_t index = 0;  // per-source submit counter (accepted only)
};
constexpr std::size_t kHeaderBytes = 20;

void pack(const Header& h, std::uint8_t* out) {
  std::memcpy(out, &h.send_ns, 8);
  std::memcpy(out + 8, &h.src, 4);
  std::memcpy(out + 12, &h.index, 8);
}

Header unpack(const std::vector<std::uint8_t>& data) {
  Header h;
  std::memcpy(&h.send_ns, data.data(), 8);
  std::memcpy(&h.src, data.data() + 8, 4);
  std::memcpy(&h.index, data.data() + 12, 8);
  return h;
}

/// Per-receiver measurement state. Each receiver's deliveries are serial
/// (one shard thread owns it), so only the counters the main thread reads
/// mid-run are atomic; cache-line aligned against cross-shard false
/// sharing.
struct alignas(64) Receiver {
  std::atomic<std::uint64_t> delivered{0};
  std::uint64_t order_violations = 0;
  std::vector<std::uint64_t> next_index;  // per source
  PercentileSampler tap_ms;
};

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

/// CPU charged to the host: the whole process minus the calling (submitter)
/// thread, i.e. the shard threads.
double shard_cpu_seconds() {
  return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) -
         cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
}

/// Sleep until `t` on an absolute CLOCK_MONOTONIC deadline (the clock
/// behind steady_clock on Linux).
void sleep_until(std::chrono::steady_clock::time_point t) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      t.time_since_epoch())
                      .count();
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "co_load: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--entities") opt.entities = std::stoul(need("--entities"));
    else if (arg == "--shards") opt.shards = std::stoul(need("--shards"));
    else if (arg == "--seconds") opt.seconds = std::stod(need("--seconds"));
    else if (arg == "--rate") opt.rate = std::stoull(need("--rate"));
    else if (arg == "--payload") opt.payload = std::stoul(need("--payload"));
    else if (arg == "--loss") opt.loss = std::stod(need("--loss"));
    else if (arg == "--window")
      opt.window = static_cast<SeqNo>(std::stoull(need("--window")));
    else if (arg == "--spin-us") opt.spin_us = std::stoll(need("--spin-us"));
    else if (arg == "--pin") opt.pin = true;
    else if (arg == "--json") opt.json_path = need("--json");
    else if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: co_load [--entities N] [--shards S] [--seconds T]\n"
             "               [--rate SUBMITS_PER_SEC] [--payload BYTES]\n"
             "               [--loss P] [--window W]\n"
             "               [--spin-us US (-1 = auto by core count)]\n"
             "               [--pin] [--json PATH]\n";
      std::exit(0);
    } else {
      std::cerr << "co_load: unknown flag " << arg << "\n";
      return false;
    }
  }
  opt.payload = std::max(opt.payload, kHeaderBytes);
  return true;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  const auto t0 = std::chrono::steady_clock::now();
  const auto since_t0_ns = [&t0] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };

  std::vector<std::unique_ptr<Receiver>> receivers;
  for (std::size_t i = 0; i < opt.entities; ++i) {
    receivers.push_back(std::make_unique<Receiver>());
    receivers.back()->next_index.assign(opt.entities, 0);
  }

  proto::CoConfig cfg;
  cfg.window = opt.window;
  // Loopback RTT is microseconds; a short defer keeps ACK batching without
  // parking deliveries, and the retransmit timeout only matters under
  // injected loss.
  cfg.defer_timeout = 1 * time::kMillisecond;
  cfg.retransmit_timeout = 25 * time::kMillisecond;

  host::HostBuilder builder(opt.entities);
  builder.proto(cfg)
      .shards(opt.shards)
      .send_loss(opt.loss)
      .deliver([&](EntityId at, EntityId src,
                   const std::vector<std::uint8_t>& data) {
        if (data.size() < kHeaderBytes) return;
        const Header h = unpack(data);
        Receiver& r = *receivers[static_cast<std::size_t>(at)];
        const double ms =
            (static_cast<double>(since_t0_ns()) -
             static_cast<double>(h.send_ns)) /
            1e6;
        r.tap_ms.add(ms);
        auto& next = r.next_index[static_cast<std::size_t>(src)];
        if (h.index != next) ++r.order_violations;
        next = h.index + 1;
        r.delivered.fetch_add(1, std::memory_order_relaxed);
      });
  if (opt.spin_us >= 0)
    builder.poll_spin(std::chrono::microseconds(opt.spin_us));
  if (opt.pin) builder.pin_shards();
  for (std::size_t i = 0; i < opt.entities; ++i)
    builder.entity(static_cast<EntityId>(i));
  auto host = builder.build();
  host->start();

  // --- paced submit window -------------------------------------------------
  const auto sum_delivered = [&receivers] {
    std::uint64_t total = 0;
    for (const auto& r : receivers)
      total += r->delivered.load(std::memory_order_relaxed);
    return total;
  };

  std::vector<std::uint64_t> submit_index(opt.entities, 0);
  std::uint64_t submits = 0;
  std::uint64_t rejected_at_source = 0;
  std::vector<std::uint8_t> payload(opt.payload, 0x5a);

#if defined(__linux__)
  // Wake on time: the default 50 us timer slack is a whole submit period
  // at 20k submits/s.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  const double cpu_start = shard_cpu_seconds();
  const auto load_start = std::chrono::steady_clock::now();
  const auto load_end =
      load_start + std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(opt.seconds));
  std::size_t next_entity = 0;
  while (std::chrono::steady_clock::now() < load_end) {
    if (opt.rate > 0) {
      // Pace: the k-th submit is due at load_start + k/rate.
      const auto due =
          load_start + std::chrono::nanoseconds(
                           submits * 1'000'000'000ull / opt.rate);
      if (due >= load_end) break;
      sleep_until(due);
    }
    const EntityId id = static_cast<EntityId>(next_entity);
    next_entity = (next_entity + 1) % opt.entities;
    Header h;
    h.send_ns = since_t0_ns();
    h.src = id;
    h.index = submit_index[static_cast<std::size_t>(id)];
    pack(h, payload.data());
    const auto res = host->submit(id, payload, proto::kEveryone);
    if (res == host::SubmitResult::kAccepted) {
      ++submit_index[static_cast<std::size_t>(id)];
      ++submits;
    } else {
      ++rejected_at_source;
      std::this_thread::yield();  // full ring: give the shards the core
    }
  }

  // Deliveries attributable to the load window: snapshot before the drain
  // phase so the tail does not dilute the rate.
  const double window_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    load_start)
          .count();
  const std::uint64_t window_deliveries = sum_delivered();
  const double cpu_window = shard_cpu_seconds() - cpu_start;

  // --- drain: every accepted submit must reach every entity ----------------
  const std::uint64_t expected = submits * opt.entities;
  const auto drain_deadline = std::chrono::steady_clock::now() + 10s;
  while (sum_delivered() < expected &&
         std::chrono::steady_clock::now() < drain_deadline)
    std::this_thread::sleep_for(1ms);
  const bool drained = sum_delivered() >= expected;
  host->await_quiescent(2s);
  host->stop();

  // --- aggregate -----------------------------------------------------------
  const std::uint64_t deliveries = sum_delivered();
  PercentileSampler tap;
  std::uint64_t order_violations = 0;
  for (const auto& r : receivers) {
    tap.merge(r->tap_ms);
    order_violations += r->order_violations;
  }
  const host::WireStats wire = host->total_wire_stats();
  const double pdus_per_sec =
      window_s > 0 ? static_cast<double>(window_deliveries) / window_s : 0;
  const double tco_us = window_deliveries
                            ? cpu_window * 1e6 /
                                  static_cast<double>(window_deliveries)
                            : 0;

  std::cout << "co_load: " << opt.entities << " entities / " << opt.shards
            << " shards, " << json_number(window_s) << "s load window\n"
            << "  submits            " << submits << " (+"
            << rejected_at_source << " rejected at the ring)\n"
            << "  deliveries         " << deliveries << " (window "
            << window_deliveries << ", " << json_number(pdus_per_sec)
            << " PDUs/sec)\n"
            << "  tap_ms             p50=" << json_number(tap.percentile(0.5))
            << " p90=" << json_number(tap.percentile(0.9))
            << " p99=" << json_number(tap.percentile(0.99)) << "\n"
            << "  tco_us_per_message " << json_number(tco_us)
            << " (shard-thread CPU per delivered PDU)\n"
            << "  order_violations   " << order_violations << "\n"
            << "  drained            " << (drained ? "yes" : "NO") << "\n"
            << "  wire               sent=" << wire.datagrams_sent
            << " recv=" << wire.datagrams_received
            << " loss_injected=" << wire.datagrams_dropped_injected
            << " ewouldblock=" << wire.send_buffer_drops
            << " decode_errors=" << wire.decode_errors
            << " submit_rejected=" << wire.submit_rejected << "\n";

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    if (!out) {
      std::cerr << "co_load: cannot write " << opt.json_path << "\n";
      return 1;
    }
    // Keys sorted, one per line: byte-stable for diffing, schema-checked by
    // scripts/check_bench_regression.py --wire-current.
    out << "{\n"
        << "  \"datagrams_received\": " << wire.datagrams_received << ",\n"
        << "  \"datagrams_sent\": " << wire.datagrams_sent << ",\n"
        << "  \"decode_errors\": " << wire.decode_errors << ",\n"
        << "  \"deliveries\": " << deliveries << ",\n"
        << "  \"drained\": " << (drained ? "true" : "false") << ",\n"
        << "  \"entities\": " << opt.entities << ",\n"
        << "  \"loss\": " << json_number(opt.loss) << ",\n"
        << "  \"order_violations\": " << order_violations << ",\n"
        << "  \"payload_bytes\": " << opt.payload << ",\n"
        << "  \"pdus_per_sec\": " << json_number(pdus_per_sec) << ",\n"
        << "  \"pin\": " << (opt.pin ? "true" : "false") << ",\n"
        << "  \"rate_target\": " << opt.rate << ",\n"
        << "  \"seconds\": " << json_number(window_s) << ",\n"
        << "  \"send_buffer_drops\": " << wire.send_buffer_drops << ",\n"
        << "  \"shards\": " << opt.shards << ",\n"
        << "  \"spin_us\": " << opt.spin_us << ",\n"
        << "  \"submit_rejected\": " << wire.submit_rejected << ",\n"
        << "  \"submits\": " << submits << ",\n"
        << "  \"tap_ms\": {\n"
        << "    \"p50\": " << json_number(tap.percentile(0.5)) << ",\n"
        << "    \"p90\": " << json_number(tap.percentile(0.9)) << ",\n"
        << "    \"p99\": " << json_number(tap.percentile(0.99)) << "\n"
        << "  },\n"
        << "  \"tco_us_per_message\": " << json_number(tco_us) << ",\n"
        << "  \"window\": " << opt.window << "\n"
        << "}\n";
    std::cout << "wrote " << opt.json_path << "\n";
  }

  // The load driver is also a smoke test: order violations or an
  // incomplete drain are protocol failures, not perf noise.
  return (order_violations == 0 && drained) ? 0 : 1;
}

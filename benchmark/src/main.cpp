// co_bench — the repository benchmark (see benchmark/NOTES.md).
//
//   co_bench --workload wire_paced|wire_closed|sim_fuzz --seed N
//            --seconds S --trace 0|1
//
// Prints one line per metric, then, as the last line, a JSON object with
// the keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics (tracing off); --trace 1 reports the per-layer ones,
// with 0 for a layer the workload does not exercise. Exit status 0 means
// a result was printed; whether it is correct is in the result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>

#include "benchmark/src/bench.h"

namespace {

using cobench::Metric;
using cobench::Result;

struct Spec {
  const char* name;
  const char* unit;
};

constexpr Spec kEndToEnd[] = {
    {"setup_s", "s"},
    {"tap_p50_ms", "ms"},
    {"tap_p90_ms", "ms"},
    {"delivered_per_s", "1/s"},
    {"shard_cpu_us_per_delivery", "us"},
    {"datagrams_per_delivery", "count"},
    {"peak_rss_mb", "MiB"},
};

constexpr Spec kPerLayer[] = {
    {"tap_p99_ms", "ms"},
    {"host.generator_lag_us", "us"},
    {"host.submit_ns", "ns"},
    {"host.submit_rejected", "count"},
    {"host.pickup_us", "us"},
    {"host.shard_cpu_cores", "cores"},
    {"host.shard_runq_wait_ms_per_s", "ms/s"},
    {"host.generator_cpu_cores", "cores"},
    {"host.generator_lag_p99_ms", "ms"},
    {"host.idle_shard_cpu_cores", "cores"},
    {"host.idle_datagrams_per_s", "1/s"},
    {"driver.timer_fires_per_s", "1/s"},
    {"driver.idle_timer_fires_per_s", "1/s"},
    {"driver.timer_arms_per_delivery", "count"},
    {"transport.datagrams_sent", "count"},
    {"transport.datagrams_received", "count"},
    {"transport.send_buffer_drops", "count"},
    {"transport.decode_errors", "count"},
    {"transport.wire_bytes_per_delivery", "B"},
    {"transport.send_many_ns_per_datagram", "ns"},
    {"transport.receive_many_ns_per_datagram", "ns"},
    {"co.step_us_per_message", "us"},
    {"co.encode_ns", "ns"},
    {"co.decode_ns", "ns"},
    {"co.pdus_sent_per_delivery", "count"},
    {"co.ctrl_per_data_pdu", "count"},
    {"co.heartbeats_sent", "count"},
    {"co.retransmissions_sent", "count"},
    {"co.flow_blocked", "count"},
    {"co.max_sl", "count"},
    {"co.max_prl", "count"},
    {"co.max_parked", "count"},
    {"co.pool_bodies_allocated", "count"},
    {"co.stage.queue_us", "us"},
    {"co.stage.queue_p50_us", "us"},
    {"co.stage.network_us", "us"},
    {"co.stage.network_p50_us", "us"},
    {"co.stage.park_us", "us"},
    {"co.stage.park_p50_us", "us"},
    {"co.stage.pack_wait_us", "us"},
    {"co.stage.pack_wait_p50_us", "us"},
    {"co.stage.ack_wait_us", "us"},
    {"co.stage.ack_wait_p50_us", "us"},
    {"co.stage.deliver_us", "us"},
    {"co.stage.deliver_p50_us", "us"},
    {"obs.ledger_tap_mean_us", "us"},
    {"obs.ledger_inconsistent", "count"},
    {"obs.ledger_unmatched", "count"},
    {"obs.trace_records_per_delivery", "count"},
    {"obs.trace_dropped", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"fuzz.generate_us", "us"},
    {"fuzz.run_ms_p50", "ms"},
    {"fuzz.run_ms_max", "ms"},
    {"fuzz.scenarios_per_s", "1/s"},
    {"fuzz.trace_events", "count"},
    {"fuzz.effects", "count"},
    {"fuzz.ns_per_trace_event", "ns"},
    {"sim.events", "count"},
    {"net.pdus_sent", "count"},
    {"net.pdus_dropped", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "co_bench: %s\n"
               "usage: co_bench --workload wire_paced|wire_closed|sim_fuzz "
               "--seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') usage("expected a whole number");
  return v;
}

cobench::Options parse(int argc, char** argv) {
  cobench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = parse_u64(value);
    } else if (arg == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(value));
      if (o.seconds < 1) usage("--seconds must be at least 1");
    } else if (arg == "--trace") {
      const std::string t = value;
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      o.trace = t == "1";
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

/// Orders the result's metrics as the spec lists them, fills a layer the
/// workload does not exercise with 0, and rejects anything unlisted.
std::vector<Metric> canonical(const Result& r, bool per_layer) {
  std::map<std::string, Metric> got;
  for (const Metric& m : r.metrics) {
    if (!std::isfinite(m.value))
      throw std::runtime_error("metric " + m.name + " is not finite");
    if (!got.emplace(m.name, m).second)
      throw std::runtime_error("metric " + m.name + " reported twice");
  }
  std::vector<Metric> out;
  const auto take = [&](const Spec& s, bool optional) {
    const auto it = got.find(s.name);
    if (it == got.end()) {
      if (!optional) throw std::runtime_error(std::string("missing metric ") + s.name);
      out.push_back(Metric{s.name, 0.0, s.unit});
      return;
    }
    if (it->second.unit != s.unit)
      throw std::runtime_error(std::string("unit mismatch for ") + s.name);
    out.push_back(it->second);
    got.erase(it);
  };
  if (per_layer) {
    for (const Spec& s : kPerLayer) take(s, true);
  } else {
    for (const Spec& s : kEndToEnd) take(s, false);
  }
  if (!got.empty()) throw std::runtime_error("unlisted metric " + got.begin()->first);
  return out;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const cobench::Options o = parse(argc, argv);
  try {
    Result r;
    if (o.workload == "wire_paced") {
      r = cobench::run_wire(o, false);
    } else if (o.workload == "wire_closed") {
      r = cobench::run_wire(o, true);
    } else if (o.workload == "sim_fuzz") {
      r = cobench::run_sim_fuzz(o);
    } else {
      usage(("unknown workload " + o.workload).c_str());
    }
    if (o.trace) {
      // Isolated layer probes, the same for every workload.
      const cobench::CodecCost codec = cobench::codec_cost(8, 64);
      r.add("co.encode_ns", codec.encode_ns, "ns");
      r.add("co.decode_ns", codec.decode_ns, "ns");
      const cobench::SocketCost sock = cobench::socket_cost(codec.encoded_bytes);
      r.add("transport.send_many_ns_per_datagram", sock.send_ns, "ns");
      r.add("transport.receive_many_ns_per_datagram", sock.receive_ns, "ns");
    }
    const std::vector<Metric> metrics = canonical(r, o.trace);

    std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
    for (const Metric& m : metrics)
      std::printf("  %-42s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("attempted=%llu failed=%llu (%.4g%%) correct=%s\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.attempted ? 100.0 * static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                            : 0.0,
                r.correct ? "true" : "false");

    std::string json = "{\"correct\": ";
    json += r.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
      if (i != 0) json += ", ";
      json += json_string(metrics[i].name) + ": {\"value\": " + value +
              ", \"unit\": " + json_string(metrics[i].unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "co_bench: %s\n", e.what());
    return 1;
  }
}

// sim_fuzz: the deterministic simulator runs fuzz::run_scenario, with no
// shrinking, over a window of 500 consecutive fuzz::Scenario::generate
// seeds, on this one thread. The sweep repeats until --seconds have passed
// (at least twice); every repeat must reproduce the first sweep's digests.
//
// The end-to-end figures are the simulated cluster's, in simulated time,
// from the first sweep: exact for a seed. The sweep's wall-clock cost is a
// per-layer figure (fuzz.*): on a shared machine it swung 1.7x between
// runs minutes apart, wider than any bound a gate may use.
#include <time.h>

#include <algorithm>
#include <array>
#include <limits>
#include <string>
#include <vector>

#include "benchmark/src/bench.h"
#include "src/fuzz/runner.h"
#include "src/fuzz/scenario.h"

namespace cobench {
namespace {

constexpr std::uint64_t kScenarios = 500;
// The workload seed picks the window start in [1, kSeedSpan]; every
// scenario seed of 1..999 passes every oracle at the time of writing.
constexpr std::uint64_t kSeedSpan = 500;
constexpr int kSetupCycles = 25;
// Set-up cycles are spread out so that one burst of interference from
// elsewhere on the machine cannot move all of them.
constexpr std::int64_t kSetupGapNs = 20 * 1'000'000;
constexpr int kMinSweeps = 2;

/// Bucket-wise sum of one histogram family over every label set and run.
struct MergedHist {
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = 0.0;

  void add(const co::obs::SnapshotSeries& s) {
    if (s.count == 0) return;
    if (buckets.empty()) buckets.assign(s.buckets.size(), 0);
    for (std::size_t i = 0; i < buckets.size() && i < s.buckets.size(); ++i)
      buckets[i] += s.buckets[i];
    count += s.count;
    sum += s.sum;
    min = std::min(min, s.hist_min);
    max = std::max(max, s.hist_max);
  }
  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
  double quantile(double q) const {
    return count ? co::obs::histogram_quantile(buckets, q, min, max) : 0.0;
  }
};

std::string label(const co::obs::SnapshotSeries& s, const std::string& key) {
  for (const auto& [k, v] : s.labels)
    if (k == key) return v;
  return "";
}

}  // namespace

Result run_sim_fuzz(const Options& options) {
  const std::uint64_t first = 1 + (options.seed % kSeedSpan + kSeedSpan - 1) % kSeedSpan;

  // Set-up: scenario generation, repeated; the last set is the one run.
  std::vector<double> setup_s;
  std::vector<co::fuzz::Scenario> scenarios;
  for (int c = 0; c < kSetupCycles; ++c) {
    if (c != 0) {
      const timespec gap{0, kSetupGapNs};
      nanosleep(&gap, nullptr);
    }
    scenarios.clear();
    const std::int64_t t0 = mono_ns();
    for (std::uint64_t k = 0; k < kScenarios; ++k)
      scenarios.push_back(co::fuzz::Scenario::generate(first + k));
    setup_s.push_back(static_cast<double>(mono_ns() - t0) / 1e9);
  }
  const double setup = median(setup_s);

  struct Digest {
    std::uint64_t trace = 0;
    std::uint64_t effect = 0;
  };
  std::vector<Digest> digests(scenarios.size());
  std::vector<double> run_ms;
  std::uint64_t runs = 0;
  std::uint64_t failed_runs = 0;
  double run_s = 0.0;
  // First sweep only: exact, seed-determined counts.
  std::uint64_t deliveries = 0;
  double sim_s = 0.0;         // simulated time the runs took
  double processing_s = 0.0;  // simulated entity processing (service time)
  std::uint64_t trace_events = 0;
  std::uint64_t effects = 0;
  double sim_events = 0.0;
  double net_sent = 0.0;
  double net_dropped = 0.0;
  double co_sent = 0.0;
  double data_sent = 0.0;
  double ctrl_sent = 0.0;
  double rtx_sent = 0.0;
  double flow_blocked = 0.0;
  MergedHist tap;
  MergedHist queue;
  std::array<MergedHist, 4> stages;  // network, park, pack_wait, ack_wait
  static const char* kStageLabels[4] = {"network", "park", "pack_wait", "ack_wait"};

  const std::int64_t start = mono_ns();
  for (int sweep = 0;
       sweep < kMinSweeps || static_cast<double>(mono_ns() - start) / 1e9 < options.seconds;
       ++sweep) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const std::int64_t t0 = mono_ns();
      const co::fuzz::RunReport rep = co::fuzz::run_scenario(scenarios[i], {});
      const std::int64_t t1 = mono_ns();
      run_s += static_cast<double>(t1 - t0) / 1e9;
      run_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      ++runs;

      bool bad = rep.failed;
      if (sweep == 0) {
        digests[i] = Digest{rep.digest, rep.effect_digest};
      } else {
        bad = bad || rep.digest != digests[i].trace || rep.effect_digest != digests[i].effect;
      }
      failed_runs += bad ? 1 : 0;
      if (sweep != 0) continue;

      deliveries += rep.deliveries;
      sim_s += static_cast<double>(rep.finished_at) / 1e9;
      processing_s += rep.metrics.value_or("co_net_pdus_delivered_total") *
                      static_cast<double>(scenarios[i].service_time) / 1e9;
      trace_events += rep.trace_events;
      effects += rep.effects_emitted;
      for (const auto& s : rep.metrics.series) {
        if (s.name == "co_sim_executed_events_total") sim_events += s.value;
        else if (s.name == "co_net_pdus_sent_total") net_sent += s.value;
        else if (s.name == "co_net_dropped_total") net_dropped += s.value;
        else if (s.name == "co_flow_blocked_total") flow_blocked += s.value;
        else if (s.name == "co_pdus_sent_total") {
          co_sent += s.value;
          const std::string kind = label(s, "kind");
          if (kind == "data") data_sent += s.value;
          else if (kind == "ctrl") ctrl_sent += s.value;
          else if (kind == "rtx") rtx_sent += s.value;
        }
        else if (s.name == "co_submit_queue_wait_ms") queue.add(s);
        else if (s.name == "co_stage_latency_ms") {
          const std::string stage = label(s, "stage");
          if (stage == "total") tap.add(s);
          for (std::size_t k = 0; k < 4; ++k)
            if (stage == kStageLabels[k]) stages[k].add(s);
        }
      }
    }
  }

  Result out;
  out.attempted = runs;
  out.failed = failed_runs;
  out.correct = failed_runs == 0;
  const double d = static_cast<double>(deliveries);
  if (!options.trace) {
    out.add("setup_s", setup, "s");
    out.add("tap_p50_ms", tap.quantile(0.50), "ms");
    out.add("tap_p90_ms", tap.quantile(0.90), "ms");
    out.add("delivered_per_s", ratio(d, sim_s), "1/s");
    out.add("shard_cpu_us_per_delivery", ratio(processing_s * 1e6, d), "us");
    out.add("datagrams_per_delivery", ratio(net_sent, d), "count");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  const double run_ms_max = *std::max_element(run_ms.begin(), run_ms.end());
  out.add("tap_p99_ms", tap.quantile(0.99), "ms");
  out.add("fuzz.generate_us", setup * 1e6 / static_cast<double>(kScenarios), "us");
  out.add("fuzz.run_ms_p50", median(run_ms), "ms");
  out.add("fuzz.run_ms_max", run_ms_max, "ms");
  out.add("fuzz.scenarios_per_s", ratio(static_cast<double>(runs), run_s), "1/s");
  out.add("fuzz.trace_events", static_cast<double>(trace_events), "count");
  out.add("fuzz.effects", static_cast<double>(effects), "count");
  out.add("fuzz.ns_per_trace_event",
          ratio(run_s * 1e9, static_cast<double>(trace_events) *
                                 static_cast<double>(runs) / static_cast<double>(kScenarios)),
          "ns");
  out.add("sim.events", sim_events, "count");
  out.add("net.pdus_sent", net_sent, "count");
  out.add("net.pdus_dropped", net_dropped, "count");
  out.add("co.pdus_sent_per_delivery", ratio(co_sent, d), "count");
  out.add("co.ctrl_per_data_pdu", ratio(ctrl_sent, data_sent), "count");
  out.add("co.retransmissions_sent", rtx_sent, "count");
  out.add("co.flow_blocked", flow_blocked, "count");
  // Simulated-time stage split (the simulator's span tracker), in us.
  out.add("co.stage.queue_us", queue.mean() * 1e3, "us");
  out.add("co.stage.queue_p50_us", queue.quantile(0.5) * 1e3, "us");
  for (std::size_t k = 0; k < 4; ++k) {
    out.add(std::string("co.stage.") + kStageLabels[k] + "_us", stages[k].mean() * 1e3, "us");
    out.add(std::string("co.stage.") + kStageLabels[k] + "_p50_us",
            stages[k].quantile(0.5) * 1e3, "us");
  }
  return out;
}

}  // namespace cobench

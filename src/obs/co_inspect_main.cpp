// co_inspect — run a configured CO experiment and break down where each
// PDU's latency went.
//
//   co_inspect [run opts] [--top-k K] [--check] [--prom FILE]
//
// Prints the per-stage latency breakdown (network / park / pack-wait /
// ack-wait, merged over all observer entities) plus the top-k slowest PDUs,
// and cross-checks the stage totals against the harness Tap measurement.
// --prom additionally exports the final metrics snapshot as Prometheus
// text, self-validated before the tool exits 0.
//
//   co_inspect trace [run opts] [--out FILE] [--from FILE]
//                    [--perfetto FILE] [--summary] [--no-flows]
//
// Binary event tracing: runs the experiment with a streaming Tracer writing
// a .cotrace file (--out, default co_trace.cotrace), re-reads it through
// the strict parser, and converts — --perfetto emits Chrome/Perfetto
// trace_event JSON (one track per entity, per-PDU flow arrows), --summary
// prints a digest. --from skips the run and converts an existing dump
// (e.g. a fuzz counterexample's flight sidecar).
//
// Both modes take the same run opts: [--n N] [--messages M] [--payload B]
// [--window W] [--loss P] [--seed S] [--link-delay-us D] [--service-us D]
// [--defer-us D] [--deadline-ms D].
//
// Exit status: 0 when the run completed and every output was written and
// valid; 1 on a CO-service violation, an invalid Prometheus exposition or
// trace, or a run that hit its deadline before delivering everything (the
// report is still printed); 2 on a usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/table.h"
#include "src/harness/experiment.h"
#include "src/obs/export.h"
#include "src/obs/observe.h"
#include "src/obs/trace/file.h"
#include "src/obs/trace/perfetto.h"
#include "src/obs/trace/tracer.h"

namespace {

using namespace co;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [run opts] [--top-k K] [--check] [--prom FILE]\n"
      "       %s trace [run opts] [--out FILE] [--from FILE]\n"
      "                [--perfetto FILE] [--summary] [--no-flows]\n"
      "run opts: [--n N] [--messages M] [--payload B] [--window W]\n"
      "          [--loss P] [--seed S] [--link-delay-us D] [--service-us D]\n"
      "          [--defer-us D] [--deadline-ms D]\n",
      argv0, argv0);
  std::exit(2);
}

struct Args {
  harness::ExperimentConfig config;
  // co_inspect
  std::size_t top_k = 10;
  std::optional<std::string> prom_path;
  // co_inspect trace
  std::string out = "co_trace.cotrace";
  std::optional<std::string> from;
  std::optional<std::string> perfetto_path;
  bool summary = false;
  bool flows = true;
};

std::uint64_t parse_u64(const char* s, const char* argv0) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage(argv0);
  return v;
}

double parse_double(const char* s, const char* argv0) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') usage(argv0);
  return v;
}

/// One parser for both modes: the run opts apply to either, the rest only
/// to the mode that names them.
Args parse_args(int argc, char** argv, bool trace) {
  Args a;
  for (int i = trace ? 2 : 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    auto duration = [&](sim::SimDuration unit) {
      return static_cast<sim::SimDuration>(parse_u64(next(), argv[0])) * unit;
    };
    if (arg == "--n") a.config.n = parse_u64(next(), argv[0]);
    else if (arg == "--messages")
      a.config.workload.messages_per_entity = parse_u64(next(), argv[0]);
    else if (arg == "--payload")
      a.config.workload.payload_bytes = parse_u64(next(), argv[0]);
    else if (arg == "--window")
      a.config.window = static_cast<SeqNo>(parse_u64(next(), argv[0]));
    else if (arg == "--loss")
      a.config.injected_loss = parse_double(next(), argv[0]);
    else if (arg == "--seed") a.config.seed = parse_u64(next(), argv[0]);
    else if (arg == "--link-delay-us")
      a.config.link_delay = duration(sim::kMicrosecond);
    else if (arg == "--service-us")
      a.config.service_time = duration(sim::kMicrosecond);
    else if (arg == "--defer-us")
      a.config.defer_timeout = duration(sim::kMicrosecond);
    else if (arg == "--deadline-ms")
      a.config.deadline = duration(sim::kMillisecond);
    else if (!trace && arg == "--top-k") a.top_k = parse_u64(next(), argv[0]);
    else if (!trace && arg == "--check") a.config.check_correctness = true;
    else if (!trace && arg == "--prom") a.prom_path = next();
    else if (trace && arg == "--out") a.out = next();
    else if (trace && arg == "--from") a.from = next();
    else if (trace && arg == "--perfetto") a.perfetto_path = next();
    else if (trace && arg == "--summary") a.summary = true;
    else if (trace && arg == "--no-flows") a.flows = false;
    else usage(argv[0]);
  }
  if (a.config.n < 2) usage(argv[0]);
  return a;
}

/// One stage's histograms merged over every observer entity.
struct MergedStage {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> buckets =
      std::vector<std::uint64_t>(obs::Histogram::bounds().size() + 1, 0);

  double mean() const {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
  double quantile(double q) const {
    return obs::histogram_quantile(buckets, q, min, max);
  }
};

MergedStage merge_stage(const obs::MetricsSnapshot& snap,
                        const std::string& stage) {
  MergedStage m;
  for (const auto& s : snap.series) {
    if (s.name != "co_stage_latency_ms") continue;
    bool match = false;
    for (const auto& [k, v] : s.labels)
      if (k == "stage" && v == stage) match = true;
    if (!match || s.count == 0) continue;
    if (m.count == 0 || s.hist_min < m.min) m.min = s.hist_min;
    if (m.count == 0 || s.hist_max > m.max) m.max = s.hist_max;
    m.count += s.count;
    m.sum += s.sum;
    for (std::size_t i = 0; i < s.buckets.size(); ++i)
      m.buckets[i] += s.buckets[i];
  }
  return m;
}

// ---------------------------------------------------------------------------
// co_inspect trace — generate / validate / convert binary event traces.

int cmd_trace(int argc, char** argv) {
  Args a = parse_args(argc, argv, /*trace=*/true);
  std::string trace_path;
  bool completed = true;  // a converted --from dump has no run

  if (a.from) {
    trace_path = *a.from;
  } else {
    // Run the experiment with a streaming tracer: rings drain into the
    // .cotrace file at the watermark, so the whole run is captured (not
    // just a flight tail).
    trace_path = a.out;
    std::ofstream os(trace_path, std::ios::binary | std::ios::trunc);
    if (!os) {
      std::fprintf(stderr, "co_inspect: cannot write %s\n",
                   trace_path.c_str());
      return 2;
    }
    obs::trace::FileStreamSink sink(os);
    obs::trace::TracerConfig tc;
    tc.overwrite_oldest = false;  // stream, don't overwrite
    obs::trace::Tracer tracer(tc, &sink);
    a.config.tracer = &tracer;
    const harness::ExperimentResult r = harness::run_co_experiment(a.config);
    tracer.flush();
    os.close();
    completed = r.completed;
    std::printf("co_inspect: trace run %s in %.3f sim-ms (n=%zu, "
                "%llu records, %llu dropped) -> %s\n",
                r.completed ? "completed" : "DEADLINE HIT", r.sim_ms,
                a.config.n,
                static_cast<unsigned long long>(tracer.appended()),
                static_cast<unsigned long long>(tracer.dropped()),
                trace_path.c_str());
  }

  // The strict reader is the arbiter: a dump we cannot fully validate is
  // reported as such, never half-converted.
  obs::trace::ParsedTrace parsed;
  if (const auto err = obs::trace::read_trace_file(trace_path, parsed)) {
    std::fprintf(stderr, "co_inspect: %s: %s\n", trace_path.c_str(),
                 err->c_str());
    return 1;
  }
  std::printf("co_inspect: %s validated: %zu records, %llu dropped\n",
              trace_path.c_str(), parsed.records.size(),
              static_cast<unsigned long long>(parsed.dropped_total()));

  // Blocks interleave streams in drain order; timeline consumers want
  // time order. stable_sort keeps block order on equal stamps.
  std::vector<obs::trace::Record> records = std::move(parsed.records);
  std::stable_sort(records.begin(), records.end(),
                   [](const obs::trace::Record& x,
                      const obs::trace::Record& y) { return x.at < y.at; });

  if (a.perfetto_path) {
    std::ofstream os(*a.perfetto_path, std::ios::trunc);
    if (!os) {
      std::fprintf(stderr, "co_inspect: cannot write %s\n",
                   a.perfetto_path->c_str());
      return 2;
    }
    obs::trace::PerfettoOptions popts;
    popts.flows = a.flows;
    obs::trace::write_perfetto_json(os, records, popts);
    if (!os) {
      std::fprintf(stderr, "co_inspect: write failed: %s\n",
                   a.perfetto_path->c_str());
      return 2;
    }
    std::printf("co_inspect: perfetto JSON: %s (open in ui.perfetto.dev "
                "or chrome://tracing)\n",
                a.perfetto_path->c_str());
  }
  if (a.summary || !a.perfetto_path) {
    std::ostringstream os;
    obs::trace::write_trace_summary(os, records, parsed.dropped_total());
    std::fputs(os.str().c_str(), stdout);
  }
  return completed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc >= 2 && std::string(argv[1]) == "trace")
    return cmd_trace(argc, argv);
  Args a = parse_args(argc, argv, /*trace=*/false);

  obs::Observability observability(a.config.n, a.top_k);
  a.config.obs = &observability;

  const harness::ExperimentResult r = harness::run_co_experiment(a.config);

  std::printf("co_inspect: n=%zu messages/entity=%zu loss=%g seed=%llu\n",
              a.config.n, a.config.workload.messages_per_entity,
              a.config.injected_loss,
              static_cast<unsigned long long>(a.config.seed));
  std::printf("run: %s in %.3f sim-ms  tap=%.3f ms  tco=%.3f us  "
              "data=%llu ctrl=%llu rtx=%llu\n",
              r.completed ? "completed" : "DEADLINE HIT", r.sim_ms, r.tap_ms,
              r.tco_us, static_cast<unsigned long long>(r.data_pdus),
              static_cast<unsigned long long>(r.ctrl_pdus),
              static_cast<unsigned long long>(r.retransmissions));
  if (r.violation) {
    std::printf("CO-SERVICE VIOLATION:\n%s\n", r.violation->c_str());
    return 1;
  }

  const obs::MetricsSnapshot& snap = *r.metrics;

  // Stage-latency breakdown, merged over all observer entities.
  Table table({"stage", "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
               "max_ms"});
  double stage_mean_sum = 0.0;
  MergedStage total;
  for (const char* stage :
       {"network", "park", "pack_wait", "ack_wait", "total"}) {
    const MergedStage m = merge_stage(snap, stage);
    if (std::string(stage) == "total") total = m;
    else stage_mean_sum += m.mean();
    table.add_row({stage, Table::num(static_cast<std::uint64_t>(m.count)),
                   Table::num(m.mean(), 3), Table::num(m.quantile(0.50), 3),
                   Table::num(m.quantile(0.95), 3),
                   Table::num(m.quantile(0.99), 3), Table::num(m.max, 3)});
  }
  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf("stage sum check: network+park+pack_wait+ack_wait = %.3f ms, "
              "total.mean = %.3f ms, tap_ms = %.3f ms\n",
              stage_mean_sum, total.mean(), r.tap_ms);

  // Top-k slowest PDUs (worst observer each).
  const auto slow = observability.spans.slowest();
  if (!slow.empty()) {
    Table top({"pdu", "worst_at", "sent_ms", "network", "park", "pack_wait",
               "ack_wait", "total_ms"});
    for (const auto& s : slow) {
      std::ostringstream key;
      key << 'E' << s.key.src << '#' << s.key.seq;
      top.add_row({key.str(), "E" + std::to_string(s.worst_observer),
                   Table::num(sim::to_ms(s.sent_at), 3),
                   Table::num(s.network_ms, 3), Table::num(s.park_ms, 3),
                   Table::num(s.pack_wait_ms, 3), Table::num(s.ack_wait_ms, 3),
                   Table::num(s.total_ms, 3)});
    }
    std::printf("top %zu slowest PDUs:\n", slow.size());
    std::ostringstream tos;
    top.print(tos);
    std::fputs(tos.str().c_str(), stdout);
  }

  if (a.prom_path) {
    std::ostringstream prom;
    obs::write_prometheus(prom, snap, &observability.registry);
    if (const auto err = obs::validate_prometheus(prom.str())) {
      std::fprintf(stderr, "co_inspect: INVALID prometheus output: %s\n",
                   err->c_str());
      return 1;
    }
    std::ofstream out(*a.prom_path);
    if (!out) {
      std::fprintf(stderr, "co_inspect: cannot write %s\n",
                   a.prom_path->c_str());
      return 2;
    }
    out << prom.str();
    std::printf("prometheus dump: %s (validated, %zu series)\n",
                a.prom_path->c_str(), snap.series.size());
  }
  return r.completed ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "co_inspect: error: %s\n", e.what());
  return 2;
}

// Binary event tracing end to end — the docs/OBSERVABILITY.md walkthrough.
//
// Runs a 6-entity cluster with a flight-recorder Tracer attached, then:
//   1. dumps the resident tail as traced_run.cotrace (the binary format
//      src/obs/trace/file.h defines);
//   2. re-reads it through the strict parser (a dump that does not
//      validate is a bug, and this example exits nonzero on it);
//   3. converts it to traced_run.json — Chrome trace_event JSON you can
//      drop into ui.perfetto.dev or chrome://tracing to see one track per
//      entity and a flow arrow following every PDU from its send slice to
//      each remote accept/pack/ack/deliver milestone;
//   4. prints the co_inspect-style summary.
//
// The same conversion is available from the command line:
//   co_inspect trace --n 6 --messages 4 --perfetto trace.json
//   co_inspect trace --from counterexample.json.cotrace --summary
#include <algorithm>
#include <fstream>
#include <iostream>

#include "src/driver/cluster.h"
#include "src/obs/trace/file.h"
#include "src/obs/trace/perfetto.h"
#include "src/obs/trace/tracer.h"

int main() {
  using namespace co;

  // A flight-recorder tracer: per-thread lock-free rings keep the newest
  // 16k records. The simulated cluster is single-threaded, so this run
  // lands in exactly one stream.
  obs::trace::Tracer tracer;

  proto::ClusterOptions options;
  options.proto.n = 6;
  options.proto.window = 8;
  options.tracer = &tracer;
  proto::CoCluster cluster(options);

  // A little causal structure: E0 announces, everyone replies, E0 closes.
  cluster.submit_text(0, "announce");
  cluster.run_for(1 * sim::kMillisecond);
  for (EntityId e = 1; e < 6; ++e)
    cluster.submit_text(e, "reply-from-E" + std::to_string(e));
  cluster.run_for(1 * sim::kMillisecond);
  cluster.submit_text(0, "close");
  if (!cluster.run_until_delivered(1000 * sim::kMillisecond)) {
    std::cerr << "traced_run: cluster did not deliver everything\n";
    return 1;
  }
  if (const auto v = cluster.check_co_service()) {
    std::cerr << "traced_run: CO-service violation: " << v->to_string()
              << "\n";
    return 1;
  }

  // 1. Dump the flight tail.
  const char* trace_path = "traced_run.cotrace";
  if (!tracer.write_snapshot_file(trace_path)) {
    std::cerr << "traced_run: cannot write " << trace_path << "\n";
    return 1;
  }

  // 2. Strict re-read: the reader, not the writer, is the arbiter.
  obs::trace::ParsedTrace parsed;
  if (const auto err = obs::trace::read_trace_file(trace_path, parsed)) {
    std::cerr << "traced_run: " << trace_path << " invalid: " << *err << "\n";
    return 1;
  }
  std::vector<obs::trace::Record> records = std::move(parsed.records);
  std::stable_sort(records.begin(), records.end(),
                   [](const obs::trace::Record& a,
                      const obs::trace::Record& b) { return a.at < b.at; });

  // 3. Perfetto conversion.
  const char* json_path = "traced_run.json";
  {
    std::ofstream os(json_path, std::ios::trunc);
    if (!os) {
      std::cerr << "traced_run: cannot write " << json_path << "\n";
      return 1;
    }
    obs::trace::write_perfetto_json(os, records);
  }

  // 4. Summary.
  std::cout << "traced_run: " << records.size() << " records -> "
            << trace_path << ", " << json_path
            << " (open in ui.perfetto.dev)\n";
  obs::trace::write_trace_summary(std::cout, records,
                                  parsed.dropped_total());

  // Smoke-test invariant: 7 data PDUs, each with a send record, and the
  // deliver count matches 7 PDUs * 6 destinations.
  std::size_t sends = 0, delivers = 0;
  for (const auto& r : records) {
    const auto e = static_cast<obs::trace::EventId>(r.event);
    if (e == obs::trace::EventId::kSend && r.arg == 1) ++sends;
    if (e == obs::trace::EventId::kDeliver) ++delivers;
  }
  if (sends != 7 || delivers != 7 * 6) {
    std::cerr << "traced_run: unexpected trace shape (sends=" << sends
              << ", delivers=" << delivers << ")\n";
    return 1;
  }
  return 0;
}

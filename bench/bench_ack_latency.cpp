// Experiment E2 — acknowledgment latency vs propagation delay R (§5).
//
// Paper: "If all the PDUs which carry the receipt confirmation for p are
// broadcast in parallel, it takes R from the acceptance of p until the
// pre-acknowledgment of p. Thus, it takes 2R time units to acknowledge p
// after its acceptance."
//
// We sweep the link delay R and report the measured accept->PACK and
// accept->ACK latencies (simulated time). With confirmations flowing
// continuously (every entity sending data), the ratios latency/R should sit
// near 1 and 2 respectively.
//
// Shape gate (ctest runs this bench): on the R-dominated rows, R >= 1 ms,
// PACK/R must lie in [0.75, 2.0] and ACK/R in [1.5, 3.0]; both rows read
// 1.40 and 2.45. A failing row is named on stderr and the exit status is 1,
// so a passing run prints exactly the table.
#include <iostream>

#include "src/common/table.h"
#include "src/harness/experiment.h"

int main() {
  using namespace co;

  std::cout << "=== E2: pre-ack/ack latency vs max propagation delay R ===\n"
            << "Paper claim: pre-acknowledgment ~R after acceptance, "
            << "acknowledgment ~2R.\n\n";

  Table table({"R [ms]", "accept->PACK [ms]", "PACK/R", "accept->ACK [ms]",
               "ACK/R"});

  bool shape_holds = true;
  for (const sim::SimDuration r_delay :
       {50 * sim::kMicrosecond, 100 * sim::kMicrosecond,
        250 * sim::kMicrosecond, 500 * sim::kMicrosecond,
        1 * sim::kMillisecond, 2 * sim::kMillisecond}) {
    harness::ExperimentConfig cfg;
    cfg.n = 4;
    cfg.window = 8;
    cfg.link_delay = r_delay;
    cfg.buffer_capacity = 1u << 20;
    // Pure propagation study: infinitely fast receivers so the latency is
    // R-dominated, with the confirmation cadence kept well below R.
    cfg.service_time = 0;
    cfg.defer_timeout = std::max<sim::SimDuration>(r_delay / 8,
                                                   20 * sim::kMicrosecond);
    cfg.workload.arrival = app::WorkloadConfig::Arrival::kContinuous;
    cfg.workload.messages_per_entity = 300;
    cfg.seed = 7;

    const auto res = harness::run_co_experiment(cfg);
    if (!res.completed) {
      std::cout << "R=" << sim::to_ms(r_delay) << "ms: DID NOT COMPLETE\n";
      return 1;
    }
    const double r_ms = sim::to_ms(r_delay);
    const double pack_r = res.accept_to_pack_ms / r_ms;
    const double ack_r = res.accept_to_ack_ms / r_ms;
    table.add_row({Table::num(r_ms, 3), Table::num(res.accept_to_pack_ms, 3),
                   Table::num(pack_r, 2), Table::num(res.accept_to_ack_ms, 3),
                   Table::num(ack_r, 2)});
    if (r_delay >= 1 * sim::kMillisecond &&
        !(pack_r >= 0.75 && pack_r <= 2.0 && ack_r >= 1.5 && ack_r <= 3.0)) {
      std::cerr << "E2 shape gate failed at R=" << r_ms << " ms: PACK/R="
                << pack_r << " (want [0.75, 2.0]), ACK/R=" << ack_r
                << " (want [1.5, 3.0])\n";
      shape_holds = false;
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: PACK/R ~= 1 and ACK/R ~= 2 once R dominates "
               "the confirmation cadence (bottom rows).\n";
  return shape_holds ? 0 : 1;
}

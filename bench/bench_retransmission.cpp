// Experiment E6 — selective retransmission (CO) vs go-back-n (TO) (§5).
//
// Paper: "If some PDUs are lost, only the PDUs lost are retransmitted, i.e.
// the selective retransmission is adopted. ... In general, protocols which
// provide the TO service [14,15,17] use the go-back-n retransmission scheme
// where all PDUs preceding the lost PDU are retransmitted. ... Hence, the
// selective retransmission is required to provide high-throughput data
// transmission in the high-speed network."
//
// Sweep the loss rate; report retransmitted PDUs (absolute and per lost
// PDU) and the simulated completion time for both protocols. The expected
// shape: TO's retransmission volume explodes with loss (each loss drags a
// whole stream suffix with it) while CO's tracks the loss count ~1:1.
//
// Shape gate (ctest runs this bench): at every loss rate above 0, CO must
// complete, resend at most one PDU per lost copy (rtx/loss <= 1.0; it reads
// 0.44-0.95) and resend fewer PDUs than TO (20-840 vs 2,331-64,133). A
// failure is named on stderr and the exit status is 1, so a passing run
// prints exactly the table.
#include <iostream>

#include "src/common/table.h"
#include "src/harness/experiment.h"

int main() {
  using namespace co;

  std::cout << "=== E6: retransmission volume, CO (selective) vs TO "
               "(go-back-n) ===\n\n";

  Table table({"loss", "proto", "data PDUs", "lost copies", "retransmitted",
               "rtx/loss", "completion [ms]"});

  bool shape_holds = true;
  for (const double loss : {0.0, 0.01, 0.02, 0.05, 0.10, 0.20}) {
    harness::ExperimentConfig cfg;
    cfg.n = 4;
    cfg.window = 8;
    cfg.buffer_capacity = 1u << 20;
    cfg.injected_loss = loss;
    cfg.retransmit_timeout = 2 * sim::kMillisecond;
    // Continuous (file-transfer) workload: a full window is in flight when
    // a loss strikes, which is exactly the regime where go-back-n drags a
    // whole suffix along and selective repeat resends one PDU.
    cfg.workload.arrival = app::WorkloadConfig::Arrival::kContinuous;
    cfg.workload.messages_per_entity = 100;
    cfg.deadline = 3'600'000 * sim::kMillisecond;
    cfg.seed = static_cast<std::uint64_t>(loss * 1000) + 3;

    const auto co_r = harness::run_co_experiment(cfg);
    const auto to_r = harness::run_to_experiment(cfg);

    for (const auto* pr : {&co_r, &to_r}) {
      const bool is_co = (pr == &co_r);
      const std::uint64_t lost = pr->dropped_injected + pr->dropped_overrun;
      if (!pr->completed) {
        table.add_row({Table::num(loss, 2), is_co ? "CO" : "TO", "-", "-",
                       "-", "-", "DNF"});
        continue;
      }
      table.add_row(
          {Table::num(loss, 2), is_co ? "CO" : "TO", Table::num(pr->data_pdus),
           Table::num(lost), Table::num(pr->retransmissions),
           lost ? Table::num(static_cast<double>(pr->retransmissions) /
                                 static_cast<double>(lost),
                             2)
                : "-",
           Table::num(pr->sim_ms, 1)});
    }
    if (loss == 0.0) continue;
    const std::uint64_t co_lost = co_r.dropped_injected + co_r.dropped_overrun;
    if (!co_r.completed) {
      std::cerr << "E6 shape gate failed at loss " << loss
                << ": CO did not complete\n";
      shape_holds = false;
    } else if (co_r.retransmissions > co_lost) {
      std::cerr << "E6 shape gate failed at loss " << loss << ": CO resent "
                << co_r.retransmissions << " PDUs for " << co_lost
                << " lost copies (want rtx/loss <= 1.0)\n";
      shape_holds = false;
    }
    if (!(co_r.retransmissions < to_r.retransmissions)) {
      std::cerr << "E6 shape gate failed at loss " << loss << ": CO resent "
                << co_r.retransmissions << " PDUs, TO "
                << to_r.retransmissions << " (want CO < TO)\n";
      shape_holds = false;
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: CO's rtx/loss stays near 1 (only lost PDUs "
               "resent); TO's grows with the in-flight suffix and loss "
               "rate.\n";
  return shape_holds ? 0 : 1;
}

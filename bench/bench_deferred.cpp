// Experiment E5 — deferred confirmation: O(n) vs O(n^2) PDUs (§4.2, §5).
//
// Paper: "If E_i transmits a PDU each time E_i receives a PDU, O(n^2) PDUs
// are transmitted in C. In order to reduce the number of PDUs transmitted,
// E_i transmits a PDU after E_i receives at least one PDU from each entity
// or after some time units, i.e. deferred confirmation. By this method,
// O(n) PDUs are transmitted."
//
// Ablation: run the same sparse workload with deferred confirmation on and
// off and count confirmation (ack-only) broadcasts per data broadcast. The
// per-data confirmation count is ~n without deferral (every receiver
// confirms every PDU) and ~1 with it (one deferred confirmation covers a
// whole round), i.e. O(n^2) vs O(n) PDUs in the cluster per round.
//
// Shape gate (ctest runs this bench): over n = 2..10, deferred ctrl/data
// may vary by at most 1.5x (it reads 5.87-6.90), while immediate ctrl/data
// must grow at least 2x from n = 2 to n = 10 (4.90 -> 12.93). A failure is
// named on stderr and the exit status is 1, so a passing run prints
// exactly the table.
#include <algorithm>
#include <iostream>
#include <vector>

#include "src/common/table.h"
#include "src/harness/experiment.h"

int main() {
  using namespace co;

  std::cout << "=== E5: confirmation traffic, deferred vs immediate ===\n\n";

  Table table({"n", "mode", "data PDUs", "ack-only PDUs", "ctrl/data",
               "total broadcasts"});

  std::vector<double> deferred_ratio;
  std::vector<double> immediate_ratio;
  for (std::size_t n = 2; n <= 10; n += 2) {
    for (const bool deferred : {true, false}) {
      harness::ExperimentConfig cfg;
      cfg.n = n;
      cfg.deferred_confirmation = deferred;
      cfg.buffer_capacity = 1u << 20;
      // Sparse sends: one PDU per entity per 5ms, so confirmations cannot
      // piggyback on data — the regime the deferral rule targets.
      cfg.workload.arrival = app::WorkloadConfig::Arrival::kUniform;
      cfg.workload.mean_interval = 5 * sim::kMillisecond;
      cfg.workload.messages_per_entity = 30;
      cfg.defer_timeout = 1 * sim::kMillisecond;
      cfg.seed = 21 + n;

      const auto r = harness::run_co_experiment(cfg);
      if (!r.completed) {
        std::cout << "n=" << n << " deferred=" << deferred
                  << ": DID NOT COMPLETE\n";
        return 1;
      }
      table.add_row({Table::num(static_cast<std::uint64_t>(n)),
                     deferred ? "deferred" : "immediate",
                     Table::num(r.data_pdus), Table::num(r.ctrl_pdus),
                     Table::num(r.ctrl_per_data, 2),
                     Table::num(r.data_pdus + r.ctrl_pdus)});
      (deferred ? deferred_ratio : immediate_ratio).push_back(r.ctrl_per_data);
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: ctrl/data grows ~n without deferral "
               "(O(n^2) PDUs per round cluster-wide) and stays ~flat with it "
               "(O(n)).\n";

  const auto [lo, hi] =
      std::minmax_element(deferred_ratio.begin(), deferred_ratio.end());
  const double deferred_spread = *hi / *lo;
  const double immediate_growth =
      immediate_ratio.back() / immediate_ratio.front();
  bool shape_holds = true;
  if (!(deferred_spread <= 1.5)) {
    std::cerr << "E5 shape gate failed: deferred ctrl/data varies "
              << deferred_spread << "x over n = 2..10 (want <= 1.5x)\n";
    shape_holds = false;
  }
  if (!(immediate_growth >= 2.0)) {
    std::cerr << "E5 shape gate failed: immediate ctrl/data grows only "
              << immediate_growth << "x from n = 2 to 10 (want >= 2x)\n";
    shape_holds = false;
  }
  return shape_holds ? 0 : 1;
}

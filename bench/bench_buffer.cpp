// Experiment E3 — buffer requirement is O(n) (§5).
//
// Paper: "each PDU p is acknowledged when 2nW PDUs are received after p is
// received ... This means that the required buffer size is O(n)."
//
// We sweep n at fixed window W and record the largest number of PDUs any
// entity held between acceptance and acknowledgment (RRL + PRL), plus the
// sent-log high watermark, and fit the growth.
#include <iostream>

#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/harness/experiment.h"

int main() {
  using namespace co;
  constexpr SeqNo kWindow = 8;

  std::cout << "=== E3: receipt-buffer occupancy vs n (W=" << kWindow
            << ") ===\n"
            << "Paper claim: a PDU is acknowledged within ~2nW receipts, so "
               "buffering is O(n).\n\n";

  Table table({"n", "max RRL+PRL [PDUs]", "2nW bound", "max sent log"});
  std::vector<double> ns, bufs;

  for (std::size_t n = 2; n <= 12; n += 2) {
    harness::ExperimentConfig cfg;
    cfg.n = n;
    cfg.window = kWindow;
    cfg.buffer_capacity = 1u << 20;
    cfg.workload.arrival = app::WorkloadConfig::Arrival::kContinuous;
    cfg.workload.messages_per_entity = 200;
    cfg.seed = 13 + n;

    const auto r = harness::run_co_experiment(cfg);
    if (!r.completed) {
      std::cout << "n=" << n << ": DID NOT COMPLETE\n";
      return 1;
    }
    ns.push_back(static_cast<double>(n));
    bufs.push_back(static_cast<double>(r.max_buffered));
    table.add_row({Table::num(static_cast<std::uint64_t>(n)),
                   Table::num(static_cast<std::uint64_t>(r.max_buffered)),
                   Table::num(static_cast<std::uint64_t>(2 * n * kWindow)),
                   Table::num(static_cast<std::uint64_t>(r.max_sent_log))});
  }
  table.print(std::cout);

  const auto fit = fit_power(ns, bufs);
  std::cout << "\nBuffer growth: max_buffered(n) ~ n^"
            << Table::num(fit.exponent, 2) << " (R^2=" << Table::num(fit.r2, 3)
            << ") — paper claims O(n).\n";
  return 0;
}

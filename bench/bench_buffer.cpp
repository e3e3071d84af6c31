// Experiment E3 — buffer requirement is O(n) (§5).
//
// Paper: "each PDU p is acknowledged when 2nW PDUs are received after p is
// received ... This means that the required buffer size is O(n)."
//
// We sweep n at fixed window W and record the largest number of PDUs any
// entity held between acceptance and acknowledgment (RRL + PRL), plus the
// sent-log high watermark, and fit the growth.
//
// Shape gate (ctest runs this bench): the power fit of max RRL+PRL over
// n = 2..12 must have an exponent of at most 1.25 (it reads 0.66, R^2
// 0.957), and every row with n >= 4 must hold at most 2nW PDUs (52-128
// against 64-192). The n = 2 row is excluded from the 2nW bound: it reads
// 38 against 32. A failure is named on stderr and the exit status is 1, so
// a passing run prints exactly the table and fit.
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
  bool shape_holds = true;

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
      std::cerr << "E3 shape gate failed: n=" << n << " did not complete\n";
      return 1;
    }
    if (n >= 4 && r.max_buffered > 2 * n * kWindow) {
      std::cerr << "E3 shape gate failed at n=" << n << ": " << r.max_buffered
                << " PDUs buffered (want <= 2nW = " << 2 * n * kWindow
                << ")\n";
      shape_holds = false;
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
  if (!(fit.exponent <= 1.25)) {
    std::cerr << "E3 shape gate failed: buffering grows as n^" << fit.exponent
              << " (want exponent <= 1.25)\n";
    shape_holds = false;
  }
  return shape_holds ? 0 : 1;
}

// Quickstart: a three-entity cluster exchanging causally ordered broadcasts.
//
//   cmake --build build && ./build/examples/quickstart
//
// Demonstrates the core API surface:
//   * build a CoCluster (scheduler + MC network + n CO entities),
//   * submit application data (DT requests),
//   * run the simulation until everything is delivered,
//   * read each entity's delivery log and verify the CO service.
#include <iostream>
#include <string>

#include "src/driver/cluster.h"

int main() {
  using namespace co;
  using namespace co::proto;

  // A cluster C = <E0, E1, E2> on a 100 us multi-channel network.
  ClusterOptions options;
  options.proto.n = 3;
  options.proto.window = 8;
  options.net.delay = net::DelayModel::fixed(100 * sim::kMicrosecond);
  options.net.buffer_capacity = 1024;
  CoCluster cluster(options);

  // E0 asks a question; once it is delivered everywhere, E1 answers.
  // The answer is causally AFTER the question, so the CO protocol delivers
  // question-then-answer at every entity, always.
  cluster.submit_text(0, "E0: does anyone have the report?");
  cluster.run_until_delivered(1'000 * sim::kMillisecond);
  cluster.submit_text(1, "E1: yes, sending it over.");
  cluster.submit_text(2, "E2: (concurrently) good morning all!");
  cluster.run_until_delivered(2'000 * sim::kMillisecond);

  for (EntityId e = 0; e < 3; ++e) {
    std::cout << "--- delivery log at E" << e << " ---\n";
    for (const auto& d : cluster.deliveries(e)) {
      std::cout << "  [t=" << sim::to_ms(d.at) << " ms] "
                << std::string(d.data.begin(), d.data.end()) << '\n';
    }
  }

  // The happened-before oracle confirms the causal order was preserved.
  if (const auto violation = cluster.check_co_service()) {
    std::cout << "CO service VIOLATED: " << violation->to_string() << '\n';
    return 1;
  }
  std::cout << "\nCO service verified: every entity saw the question before "
               "the answer.\n";
  return 0;
}

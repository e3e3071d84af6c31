// Anatomy of a loss recovery — a narrated run of the failure-detection and
// selective-retransmission machinery of §4.3.
//
// E0 broadcasts a stream of PDUs; the network deterministically destroys
// one copy on the E0->E2 channel. The example prints the protocol's own
// counters at each phase: the failure condition firing at E2, the RET PDU,
// the selective rebroadcast from E0, and the final, gap-free delivery.
#include <iostream>
#include <vector>

#include "src/driver/cluster.h"

namespace {

/// Keeps every protocol record; interesting slices are printed at the end.
struct RecordLog final : co::proto::CoObserver {
  std::vector<co::proto::Record> records;
  void on_event(const co::proto::Record& r) override { records.push_back(r); }
};

/// One line per record: time, actor, event name, subject PDU and arg.
void print_record(const co::proto::Record& r) {
  std::cout << "  [t=" << co::sim::to_ms(r.at) << " ms] E" << r.actor << ' '
            << co::obs::trace::event_name(static_cast<co::proto::EventId>(
                   r.event))
            << " E" << r.origin << '#' << r.seq << " arg=" << r.arg << '\n';
}

}  // namespace

int main() {
  using namespace co;
  using namespace co::proto;

  RecordLog trace;

  ClusterOptions options;
  options.proto.n = 3;
  options.proto.retransmit_timeout = 2 * sim::kMillisecond;
  options.net.delay = net::DelayModel::fixed(100 * sim::kMicrosecond);
  options.net.buffer_capacity = 1024;
  options.observer = &trace;
  CoCluster cluster(options);

  std::cout << "E0 will broadcast 6 PDUs; the copy of PDU #3 addressed to E2 "
               "is destroyed in flight.\n\n";
  cluster.submit_text(0, "pdu-1");
  cluster.submit_text(0, "pdu-2");
  cluster.run_for(1 * sim::kMillisecond);  // let their copies land
  cluster.network().force_drop(0, 2, 1);   // next E0->E2 copy vanishes
  cluster.submit_text(0, "pdu-3");
  cluster.submit_text(0, "pdu-4");
  cluster.submit_text(0, "pdu-5");
  cluster.submit_text(0, "pdu-6");

  const bool ok = cluster.run_until_delivered(10'000 * sim::kMillisecond);

  const auto& e2 = cluster.entity(2).stats();
  const auto& e0 = cluster.entity(0).stats();
  std::cout << "at E2 (the victim):\n"
            << "  failure condition (1) gap detections : " << e2.f1_detections
            << "\n"
            << "  failure condition (2) ack detections : " << e2.f2_detections
            << "\n"
            << "  RET PDUs broadcast                   : " << e2.ret_pdus_sent
            << "\n"
            << "  out-of-order PDUs parked (selective) : "
            << e2.parked_out_of_order << "\n"
            << "at E0 (the source):\n"
            << "  PDUs selectively rebroadcast         : "
            << e0.retransmissions_sent << "  (go-back-n would have resent "
            << "the whole suffix)\n\n";

  // f1/f2 name the first missing PDU with the gap length as arg; ret names
  // the requested source and the SEQ it wants everything below of.
  std::cout << "protocol trace at E2 (failure detection and recovery):\n";
  for (const Record& r : trace.records) {
    const auto e = static_cast<EventId>(r.event);
    if (r.actor == 2 && (e == EventId::kF1 || e == EventId::kF2 ||
                         e == EventId::kRet || e == EventId::kDup))
      print_record(r);
  }
  std::cout << "protocol trace at E0 (the selective rebroadcast):\n";
  for (const Record& r : trace.records)
    if (r.actor == 0 && static_cast<EventId>(r.event) == EventId::kRtx)
      print_record(r);

  std::cout << "\ndelivery log at E2 (complete and in order):\n";
  for (const auto& d : cluster.deliveries(2))
    std::cout << "  [t=" << sim::to_ms(d.at) << " ms] "
              << std::string(d.data.begin(), d.data.end()) << '\n';

  if (!ok) {
    std::cout << "recovery FAILED\n";
    return 1;
  }
  if (const auto v = cluster.check_co_service()) {
    std::cout << "CO service violated: " << v->to_string() << '\n';
    return 1;
  }
  std::cout << "\nrecovered: information-preserved and causality-preserved "
               "at every entity.\n";
  return 0;
}

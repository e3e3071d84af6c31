// Experiment E4 — PDU length is O(n) (§4.1 Fig. 4, §5).
//
// Paper: "Since each PDU carries n receipt confirmations in the ACK field
// as shown in Figure 4, the length of PDU is O(n)."
//
// We serialize data, ack-only, and RET PDUs with the wire codec for growing
// cluster sizes and fit the growth of the header (non-payload) bytes.
//
// Shape gate (ctest runs this bench): the linear fit of the ack-only PDU
// size over n = 2..64 must have R^2 >= 0.99 and a slope of at most 2 bytes
// per entity (it reads 1.00 B, R^2 1.000). A failure is named on stderr and
// the exit status is 1, so a passing run prints exactly the table and fit.
#include <iostream>

#include "src/co/wire.h"
#include "src/common/stats.h"
#include "src/common/table.h"

int main() {
  using namespace co;
  using namespace co::proto;

  std::cout << "=== E4: on-wire PDU size vs n ===\n"
            << "Paper claim: the ACK field carries n confirmations, so PDU "
               "length grows O(n).\n\n";

  Table table({"n", "data PDU [B] (64B payload)", "ack-only PDU [B]",
               "RET PDU [B]"});
  std::vector<double> ns, hdr;

  for (std::size_t n = 2; n <= 64; n *= 2) {
    CoPdu data;
    data.cid = 1;
    data.src = 0;
    data.seq = 1000;
    data.ack.assign(n, 1000);
    data.buf = 64;
    data.data.assign(64, 0xab);

    CoPdu ctrl = data;
    ctrl.data.clear();

    RetPdu ret;
    ret.cid = 1;
    ret.src = 0;
    ret.lsrc = 1;
    ret.lseq = 1000;
    ret.ack.assign(n, 1000);
    ret.buf = 64;

    const std::size_t s_data = wire_size(Message(data));
    const std::size_t s_ctrl = wire_size(Message(ctrl));
    const std::size_t s_ret = wire_size(Message(ret));
    ns.push_back(static_cast<double>(n));
    hdr.push_back(static_cast<double>(s_ctrl));
    table.add_row({Table::num(static_cast<std::uint64_t>(n)),
                   Table::num(static_cast<std::uint64_t>(s_data)),
                   Table::num(static_cast<std::uint64_t>(s_ctrl)),
                   Table::num(static_cast<std::uint64_t>(s_ret))});
  }
  table.print(std::cout);

  const auto fit = fit_linear(ns, hdr);
  std::cout << "\nHeader growth: bytes(n) ~= " << Table::num(fit.intercept, 1)
            << " + " << Table::num(fit.slope, 2) << " * n (R^2="
            << Table::num(fit.r2, 3) << ") — linear in n as claimed "
            << "(~1 byte per confirmation: each ACK entry is the zig-zag "
            << "varint of its delta from SEQ, small in a healthy cluster).\n";

  bool shape_holds = true;
  if (!(fit.r2 >= 0.99)) {
    std::cerr << "E4 shape gate failed: ack-only size is not linear in n (R^2="
              << fit.r2 << ", want >= 0.99)\n";
    shape_holds = false;
  }
  if (!(fit.slope <= 2.0)) {
    std::cerr << "E4 shape gate failed: ack-only size grows " << fit.slope
              << " B per entity (want <= 2)\n";
    shape_holds = false;
  }
  return shape_holds ? 0 : 1;
}

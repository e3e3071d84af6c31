// udp_chat — the CO protocol on real UDP sockets, as a tiny chat tool.
//
// Demo mode (default, used by the test suite): runs a 3-node cluster inside
// one process — one host, one shard thread per node — over real loopback
// sockets with 10% injected send loss, and prints each node's causally
// ordered view of a scripted conversation.
//
// Multi-process mode: run one instance per terminal —
//   ./udp_chat --self 0 --peers 9000,9001,9002
//   ./udp_chat --self 1 --peers 9000,9001,9002
//   ./udp_chat --self 2 --peers 9000,9001,9002
// then type lines; every line is causally broadcast to all members. Each
// process is a host with one local entity and the others as peers.
#include <chrono>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/host/host.h"

namespace {

using namespace co;
using namespace co::transport;
using namespace std::chrono_literals;
using host::HostBuilder;

std::vector<UdpEndpoint> parse_peers(const std::string& csv) {
  std::vector<UdpEndpoint> peers;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ','))
    peers.push_back(UdpEndpoint::loopback(
        static_cast<std::uint16_t>(std::stoi(tok))));
  return peers;
}

int run_interactive(EntityId self, const std::vector<UdpEndpoint>& peers) {
  HostBuilder builder(peers.size());
  builder.entity(self, peers.at(static_cast<std::size_t>(self)))
      .deliver([](EntityId, EntityId src,
                  const std::vector<std::uint8_t>& data) {
        std::cout << "  [from node " << src << "] "
                  << std::string(data.begin(), data.end()) << '\n';
      });
  for (std::size_t i = 0; i < peers.size(); ++i)
    if (static_cast<EntityId>(i) != self)
      builder.peer(static_cast<EntityId>(i), peers[i]);
  auto host = builder.build();
  std::cout << "node " << self << " listening on port "
            << host->endpoint(self).port << "; type messages:\n";
  host->start();
  std::string line;
  while (std::getline(std::cin, line))
    if (!line.empty()) host->submit(self, {line.begin(), line.end()});
  host->stop();
  return 0;
}

int run_demo() {
  constexpr std::size_t kNodes = 3;
  std::mutex out_mutex;
  std::vector<std::vector<std::string>> views(kNodes);

  proto::CoConfig pcfg;
  pcfg.defer_timeout = 2 * time::kMillisecond;
  pcfg.retransmit_timeout = 10 * time::kMillisecond;

  HostBuilder builder(kNodes);
  builder.proto(pcfg)
      .shards(kNodes)        // one thread per node
      .send_loss(0.10, 7)    // flaky "network"; node i draws seed 7 + i
      .deliver([&views, &out_mutex](EntityId at, EntityId src,
                                    const std::vector<std::uint8_t>& data) {
        const std::lock_guard<std::mutex> lock(out_mutex);
        views[static_cast<std::size_t>(at)].push_back(
            "node" + std::to_string(src) + ": " +
            std::string(data.begin(), data.end()));
      });
  for (std::size_t i = 0; i < kNodes; ++i)
    builder.entity(static_cast<EntityId>(i));
  auto host = builder.build();
  host->start();

  auto say = [&](EntityId who, const std::string& text) {
    host->submit(who, {text.begin(), text.end()});
  };
  auto everyone_has = [&](std::size_t count) {
    const auto deadline = std::chrono::steady_clock::now() + 8'000ms;
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(out_mutex);
        bool ok = true;
        for (const auto& v : views) ok &= v.size() >= count;
        if (ok) return true;
      }
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(2ms);
    }
  };

  say(0, "anyone up for lunch?");
  bool ok = everyone_has(1);
  say(1, "yes! the usual place?");  // causally after the question
  ok = ok && everyone_has(2);
  say(2, "count me in");
  ok = ok && everyone_has(3);

  host->stop();

  bool order_ok = true;
  for (std::size_t i = 0; i < kNodes; ++i) {
    std::cout << "--- node " << i << " saw ---\n";
    for (const auto& line : views[i]) std::cout << "  " << line << '\n';
    // The reply must never precede the question at any node.
    if (views[i].size() >= 2 &&
        views[i][0].find("anyone up") == std::string::npos)
      order_ok = false;
  }
  const std::uint64_t dropped =
      host->total_wire_stats().datagrams_dropped_injected;
  std::uint64_t rtx = 0;
  for (std::size_t i = 0; i < kNodes; ++i)
    rtx += host->protocol_stats(static_cast<EntityId>(i)).retransmissions_sent;
  std::cout << "\nreal UDP datagrams deliberately dropped: " << dropped
            << "; selectively retransmitted PDUs: " << rtx << '\n';
  if (!ok || !order_ok) {
    std::cout << "FAILED (delivered=" << ok << " ordered=" << order_ok
              << ")\n";
    return 1;
  }
  std::cout << "causal order held at every node, over real sockets, under "
               "loss.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  EntityId self = -1;
  std::string peers_csv;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self" && i + 1 < argc) self = std::stoi(argv[++i]);
    if (arg == "--peers" && i + 1 < argc) peers_csv = argv[++i];
  }
  if (self >= 0 && !peers_csv.empty())
    return run_interactive(self, parse_peers(peers_csv));
  return run_demo();
}

// CSCW groupware chat — the application domain the paper's introduction
// motivates ("distributed applications like CSCW ... require group
// communication").
//
// Five collaborators chat over a lossy high-speed network. Replies are
// causally dependent on the messages they answer; the CO protocol
// guarantees no site ever renders a reply before the message it quotes,
// even while lost PDUs are being retransmitted. A FIFO-only (LO) service
// cannot make that promise — see tests/baselines_test.cpp.
#include <iostream>
#include <map>
#include <string>

#include "src/driver/cluster.h"

namespace {

struct ChatMessage {
  int id;
  int reply_to;  // -1 = fresh message
  std::string text;

  std::vector<std::uint8_t> encode() const {
    std::string s = std::to_string(id) + "|" + std::to_string(reply_to) + "|" +
                    text;
    return {s.begin(), s.end()};
  }
  static ChatMessage decode(const std::vector<std::uint8_t>& bytes) {
    const std::string s(bytes.begin(), bytes.end());
    const auto p1 = s.find('|');
    const auto p2 = s.find('|', p1 + 1);
    return ChatMessage{std::stoi(s.substr(0, p1)),
                       std::stoi(s.substr(p1 + 1, p2 - p1 - 1)),
                       s.substr(p2 + 1)};
  }
};

}  // namespace

int main() {
  using namespace co;
  using namespace co::proto;

  constexpr std::size_t kUsers = 5;
  const char* names[kUsers] = {"ann", "bob", "cho", "dee", "eli"};

  ClusterOptions options;
  options.proto.n = kUsers;
  options.net.delay = net::DelayModel::uniform(
      50 * sim::kMicrosecond, 400 * sim::kMicrosecond, /*seed=*/2026);
  options.net.buffer_capacity = 1u << 16;
  options.net.injected_loss = 0.08;  // flaky wifi
  options.net.seed = 7;
  CoCluster cluster(options);

  int next_id = 0;
  auto say = [&](EntityId who, int reply_to, const std::string& text) {
    const ChatMessage m{next_id++, reply_to, text};
    cluster.submit(who, m.encode());
    return m.id;
  };

  // A conversation where answers follow sight of the question: each user
  // replies only after the quoted message was DELIVERED at their site.
  const int q1 = say(0, -1, "shall we ship v2 on friday?");
  cluster.run_until_delivered(10'000 * sim::kMillisecond);
  say(1, q1, "yes, docs are ready");
  const int a2 = say(2, q1, "hold on, perf tests still red");
  cluster.run_until_delivered(20'000 * sim::kMillisecond);
  const int a3 = say(3, a2, "red only on the old runner, ignore");
  cluster.run_until_delivered(30'000 * sim::kMillisecond);
  say(4, a3, "ok then friday it is");
  cluster.run_until_delivered(40'000 * sim::kMillisecond);

  // Render every site's view and check the invariant: a reply never appears
  // before the message it quotes.
  bool ok = true;
  for (EntityId e = 0; e < static_cast<EntityId>(kUsers); ++e) {
    std::cout << "=== chat as seen by " << names[e] << " ===\n";
    std::map<int, bool> seen;
    for (const auto& d : cluster.deliveries(e)) {
      const auto m = ChatMessage::decode(d.data);
      std::cout << "  " << names[d.key.src] << ": " << m.text;
      if (m.reply_to >= 0) {
        std::cout << "  (reply to #" << m.reply_to << ")";
        if (!seen[m.reply_to]) {
          std::cout << "  <-- REPLY BEFORE ORIGINAL!";
          ok = false;
        }
      }
      std::cout << '\n';
      seen[m.id] = true;
    }
  }

  const auto& net_stats = cluster.network().stats();
  std::cout << "\nnetwork: " << net_stats.dropped_total()
            << " PDU copies lost, "
            << cluster.aggregate_stats().retransmissions_sent
            << " selectively retransmitted\n";
  if (const auto v = cluster.check_co_service()) {
    std::cout << "CO service violated: " << v->to_string() << '\n';
    return 1;
  }
  std::cout << (ok ? "invariant held at every site: no reply rendered before "
                     "its original\n"
                   : "invariant BROKEN\n");
  return ok ? 0 : 1;
}

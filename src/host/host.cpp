#include "src/host/host.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/common/expect.h"

namespace co::host {

// --- Host --------------------------------------------------------------------

Host::~Host() { stop(); }

EntityRuntime& Host::runtime(EntityId id) const {
  CO_EXPECT_MSG(is_local(id), "entity E" << id << " is not hosted here");
  return *by_entity_[static_cast<std::size_t>(id)];
}

transport::UdpEndpoint Host::endpoint(EntityId id) const {
  CO_EXPECT(id >= 0 && static_cast<std::size_t>(id) < peers_.size());
  return peers_[static_cast<std::size_t>(id)];
}

void Host::set_peer(EntityId id, transport::UdpEndpoint ep) {
  CO_EXPECT_MSG(state() == State::kBound,
                "set_peer() requires the bound state — the peer table is "
                "frozen once start() hands it to the shard threads");
  CO_EXPECT(id >= 0 && static_cast<std::size_t>(id) < peers_.size());
  CO_EXPECT_MSG(!is_local(id),
                "E" << id << " is local; its endpoint is fixed by bind()");
  peers_[static_cast<std::size_t>(id)] = ep;
  update_destinations();
}

void Host::update_destinations() {
  for (auto& shard : shards_) shard->update_destinations();
}

void Host::start() {
  CO_EXPECT_MSG(state() == State::kBound,
                "start() requires the bound state (start() is one-shot)");
  for (std::size_t i = 0; i < peers_.size(); ++i)
    CO_EXPECT_MSG(peers_[i].port != 0,
                  "peer E" << i << " has no endpoint; declare it with "
                              "HostBuilder::peer() or Host::set_peer() "
                              "before start()");
  state_.store(State::kRunning, std::memory_order_release);
  stop_flag_.store(false, std::memory_order_relaxed);
  threads_.reserve(shards_.size());
  for (auto& shard : shards_)
    threads_.emplace_back([&shard, this] { shard->run(stop_flag_); });
}

void Host::stop() {
  if (state() != State::kRunning) return;
  stop_flag_.store(true, std::memory_order_relaxed);
  // Ring every doorbell: a shard may be deep in a blocking poll (idle
  // shards sleep up to kIdlePollCap) and must notice the flag now.
  for (auto& shard : shards_) shard->wake();
  for (auto& t : threads_) t.join();
  threads_.clear();
  state_.store(State::kStopped, std::memory_order_release);
}

SubmitResult Host::submit(EntityId id, std::vector<std::uint8_t> data,
                          proto::DstMask dst) {
  if (state() == State::kStopped) return SubmitResult::kStopped;
  return runtime(id).submit(std::move(data), dst);
}

bool Host::quiescent() const {
  for (const auto& shard : shards_)
    if (!shard->quiescent_hint()) return false;
  return true;
}

bool Host::await_quiescent(std::chrono::milliseconds limit) const {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!quiescent()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

WireStats Host::total_wire_stats() const {
  WireStats total;
  for (const auto& shard : shards_) total += shard->wire_stats();
  return total;
}

proto::CoEntityStats::Snapshot Host::protocol_stats(EntityId id) const {
  return runtime(id).core().stats().snapshot();
}

// --- HostBuilder -------------------------------------------------------------

HostBuilder::HostBuilder(std::size_t n) { proto_.n = n; }

HostBuilder& HostBuilder::proto(const proto::CoConfig& config) {
  const std::size_t n = proto_.n;
  proto_ = config;
  proto_.n = n;
  return *this;
}

HostBuilder& HostBuilder::shards(std::size_t count) {
  CO_EXPECT_MSG(count >= 1, "a host needs at least one shard");
  shards_ = count;
  return *this;
}

HostBuilder& HostBuilder::entity(EntityId id, transport::UdpEndpoint ep) {
  entities_.push_back(LocalEntity{id, ep});
  return *this;
}

HostBuilder& HostBuilder::peer(EntityId id, transport::UdpEndpoint ep) {
  remote_peers_.emplace_back(id, ep);
  return *this;
}

HostBuilder& HostBuilder::deliver(DeliverFn fn) {
  deliver_ = std::move(fn);
  return *this;
}

HostBuilder& HostBuilder::observer(proto::CoObserver* tap) {
  observer_ = tap;
  return *this;
}

HostBuilder& HostBuilder::tracer(obs::trace::Tracer* tracer) {
  tracer_ = tracer;
  return *this;
}

HostBuilder& HostBuilder::send_loss(double probability, std::uint64_t seed) {
  send_loss_ = probability;
  loss_seed_ = seed;
  return *this;
}

std::unique_ptr<Host> HostBuilder::build() {
  proto_.validate();
  CO_EXPECT_MSG(!entities_.empty(), "a host needs at least one local entity");

  auto host = std::unique_ptr<Host>(new Host());
  host->peers_.assign(proto_.n, transport::UdpEndpoint{});
  host->by_entity_.assign(proto_.n, nullptr);
  host->deliver_ = std::move(deliver_);
  host->epoch_ = std::chrono::steady_clock::now();
  host->locals_ = entities_.size();

  for (const auto& [id, ep] : remote_peers_) {
    CO_EXPECT(id >= 0 && static_cast<std::size_t>(id) < proto_.n);
    host->peers_[static_cast<std::size_t>(id)] = ep;
  }

  // Placement is round-robin in declaration order: entity i lives on
  // shard i % shard_count. Each shard binds one socket, to the port its
  // entities ask for explicitly, if any (0 = ephemeral).
  const std::size_t shard_count = std::min(shards_, entities_.size());
  std::vector<std::uint16_t> ports(shard_count, 0);
  for (std::size_t i = 0; i < entities_.size(); ++i) {
    const auto [id, ep] = entities_[i];
    if (ep.port == 0) continue;
    std::uint16_t& port = ports[i % shard_count];
    CO_EXPECT_MSG(port == 0 || port == ep.port,
                  "E" << id << " asks for port " << ep.port << ", but shard "
                      << i % shard_count << " binds port " << port
                      << " for an entity declared before it");
    port = ep.port;
  }

  // Spin policy: busy-polling only pays when every shard can own a core
  // and at least one is left for the producer threads; on smaller
  // machines spinning shards steal the producers' cycles and latency gets
  // worse, so sleep immediately instead.
  const unsigned cores = std::thread::hardware_concurrency();
  const std::chrono::microseconds spin =
      cores >= shard_count + 1 ? kDefaultSpin : std::chrono::microseconds{0};
  for (std::size_t s = 0; s < shard_count; ++s) {
    ShardConfig cfg;
    cfg.socket.bind_loopback(ports[s]);
    cfg.tracer = tracer_;
    cfg.send_loss_probability = send_loss_;
    // entities_[s] is the shard's first entity.
    cfg.loss_seed = loss_seed_ + static_cast<std::uint64_t>(entities_[s].id);
    host->shards_.push_back(std::make_unique<Shard>(
        s, std::move(cfg), &host->peers_, &host->deliver_, host->epoch_));
    host->shards_.back()->set_spin(spin);
  }

  for (std::size_t i = 0; i < entities_.size(); ++i) {
    const EntityId id = entities_[i].id;
    CO_EXPECT_MSG(id >= 0 && static_cast<std::size_t>(id) < proto_.n,
                  "local entity id E" << id << " outside cluster of "
                                      << proto_.n);
    CO_EXPECT_MSG(host->by_entity_[static_cast<std::size_t>(id)] == nullptr,
                  "E" << id << " declared local twice");
    CO_EXPECT_MSG(host->peers_[static_cast<std::size_t>(id)].port == 0,
                  "E" << id << " declared both local and remote");

    EntityRuntimeConfig cfg;
    cfg.id = id;
    cfg.proto = proto_;
    cfg.observer = observer_;

    Shard& shard = *host->shards_[i % shard_count];
    host->by_entity_[static_cast<std::size_t>(id)] =
        &shard.add_entity(std::move(cfg));
    host->peers_[static_cast<std::size_t>(id)] = shard.endpoint();
  }
  host->update_destinations();
  return host;
}

}  // namespace co::host

// Host — a sharded realtime process running CO entities over real UDP.
//
// The realtime counterpart of the simulator's CoCluster: one Host owns N
// shard threads (src/host/shard.h), each driving a slice of the host's
// local entities, while application threads talk to the shards exclusively
// through lock-free SPSC rings. The shard is the network endpoint: it binds
// one UDP socket, sends each frame of its entities' broadcasts once per
// destination endpoint, and hands a broadcast to the other entities on it
// in-process. Entities not hosted here are *peers* — remote processes
// addressed through the shared endpoint table, where a local entity's
// entry is its shard's endpoint. The paper's deployment, one entity per
// workstation, is a Host with one local entity and every other entity
// declared a peer; it puts the same datagrams on the wire as one socket
// per entity would.
//
// Construction is the fluent HostBuilder, with an explicit lifecycle:
//
//   configured --build()--> bound --start()--> running --stop()--> stopped
//
//   * configured: the builder accumulates entities/peers/options; nothing
//     has touched the network.
//   * bound: build() validated the config and bound one socket per shard
//     (ephemeral ports resolved, readable via endpoint()); remote peer
//     endpoints may still be filled in via set_peer().
//   * running: start() froze the peer table and spawned the shard threads;
//     set_peer() now throws instead of racing the shards.
//   * stopped: stop() joined the threads; stats are safe to read.
//
// Threading contract:
//   * submit(id, ...) — at most ONE producer thread per entity at a time
//     (the SPSC ring's contract); different entities may be fed from
//     different threads concurrently.
//   * the deliver callback runs on the shard thread owning the delivering
//     entity; the builder-supplied observer runs on shard threads too and
//     must be thread-safe if entities span shards. It sees every local
//     entity's protocol records; Record::actor says which entity reported.
//   * total_wire_stats()/protocol_stats() are stable after stop(); while
//     running they are best-effort (counters mutate on shard threads).
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/host/shard.h"

namespace co::host {

class HostBuilder;

class Host {
 public:
  enum class State : std::uint8_t { kBound, kRunning, kStopped };

  ~Host();  // stops and joins if still running

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  State state() const { return state_.load(std::memory_order_acquire); }
  std::size_t n() const { return peers_.size(); }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t local_entity_count() const { return locals_; }
  bool is_local(EntityId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < by_entity_.size() &&
           by_entity_[static_cast<std::size_t>(id)] != nullptr;
  }

  /// The endpoint table entry for `id` — for a local entity this is its
  /// shard's bound (ephemeral-resolved) address, the one peers send to;
  /// entities on one shard share it.
  transport::UdpEndpoint endpoint(EntityId id) const;

  /// Fill in a remote peer's endpoint. Only legal while bound: once the
  /// host is running the table is owned by the shard threads, and mutating
  /// it would be a data race — that mistake now throws std::logic_error.
  /// Peers that share an endpoint get one datagram per frame.
  void set_peer(EntityId id, transport::UdpEndpoint ep);

  /// bound -> running: freeze the peer table (every entry must have a
  /// port by now) and spawn one thread per shard.
  void start();

  /// running -> stopped: ask the shards to wind down (waking any that are
  /// asleep in poll) and join them. Each shard runs one final submission
  /// drain on its way out, so a submit that returned kAccepted is never
  /// silently dropped in a ring — it entered the protocol or the caller
  /// was told kQueueFull/kStopped. Idempotent; the destructor calls it.
  void stop();

  /// Submission ring for entity `id` (must be local). One producer thread
  /// per entity; see the class comment. Legal in bound state too — queued
  /// work drains when the shards start.
  SubmitResult submit(EntityId id, std::vector<std::uint8_t> data,
                      proto::DstMask dst = proto::kEveryone);

  /// True when every shard reported all its entities quiescent at the end
  /// of its latest loop iteration (relaxed hint, exact once stopped).
  bool quiescent() const;

  /// Spin (with a small sleep) until quiescent() or `limit` elapsed.
  bool await_quiescent(std::chrono::milliseconds limit) const;

  /// Shard `i`. While the host is bound, a caller may drive it on its own
  /// thread with shard(i).poll_once() — one thread per shard; never after
  /// start(), when the shard's own thread runs the loop.
  Shard& shard(std::size_t i) { return *shards_[i]; }
  const Shard& shard(std::size_t i) const { return *shards_[i]; }

  /// Wire-level counters summed over every shard (Shard::wire_stats()
  /// has one shard's).
  WireStats total_wire_stats() const;

  /// Protocol counters of one local entity (snapshot; stable after stop).
  proto::CoEntityStats::Snapshot protocol_stats(EntityId id) const;

  /// The host-wide clock origin: every shard's clock (Shard::wall_now(),
  /// the `at` of its trace records) counts nanoseconds since this instant.
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

 private:
  friend class HostBuilder;
  Host() = default;

  EntityRuntime& runtime(EntityId id) const;
  /// Re-derive every shard's destination endpoints from peers_.
  void update_destinations();

  std::vector<transport::UdpEndpoint> peers_;  // frozen at start()
  DeliverFn deliver_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<EntityRuntime*> by_entity_;  // EntityId -> runtime (or null)
  std::size_t locals_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_flag_{false};
  std::atomic<State> state_{State::kBound};
};

/// Fluent construction for Host:
///
///   auto host = HostBuilder(8)            // cluster size n
///                   .shards(2)
///                   .entity(0).entity(1)  // local entities, ephemeral ports
///                   .peer(7, remote_ep)   // entity hosted elsewhere
///                   .deliver(on_deliver)
///                   .tracer(&tracer)
///                   .build();             // binds one socket per shard
///   host->start();                        // shard threads   -> running
///   host->submit(0, bytes);
///   host->stop();                         // joined          -> stopped
///
/// Entities default to round-robin shard placement in declaration order, so
/// shard s holds the s-th declared entity and every shard_count()-th one
/// after it.
class HostBuilder {
 public:
  /// `n` is the cluster size (all entities, local and remote).
  explicit HostBuilder(std::size_t n);

  /// Replace the whole protocol config (n is preserved from the builder).
  HostBuilder& proto(const proto::CoConfig& config);
  HostBuilder& shards(std::size_t count);
  /// Declare a local entity. An explicit `ep` (non-zero port) binds the
  /// entity's shard to it; two different explicit endpoints on one shard
  /// are a build() error. Default: loopback, ephemeral port — resolved
  /// after build() via Host::endpoint().
  HostBuilder& entity(EntityId id,
                      transport::UdpEndpoint ep =
                          transport::UdpEndpoint::loopback(0));
  /// Declare a remote entity's endpoint (may also be set later, while the
  /// host is bound, via Host::set_peer()).
  HostBuilder& peer(EntityId id, transport::UdpEndpoint ep);
  HostBuilder& deliver(DeliverFn fn);
  /// Shared protocol observer (not owned): receives every local entity's
  /// records, keyed by Record::actor. Runs on shard threads — must be
  /// thread-safe when entities span shards.
  HostBuilder& observer(proto::CoObserver* tap);
  /// Shared binary event tracer (not owned; one lock-free stream per shard
  /// thread, so the merged snapshot is the cross-shard record).
  HostBuilder& tracer(obs::trace::Tracer* tracer);
  /// Sender-side loss injection: each shard drops whole frames per
  /// destination endpoint. Shard s draws seed + the id of its first
  /// entity, so a shard of one entity keeps the seed that entity would
  /// have alone. In-process delivery within a shard is never lost.
  HostBuilder& send_loss(double probability,
                         std::uint64_t seed = Rng::kDefaultSeed);
  /// Capacity of each entity's SPSC submission ring.
  HostBuilder& submit_queue(std::size_t capacity);
  /// Receive batching: datagrams per recvmmsg burst / bytes per slot.
  HostBuilder& recv_batch(std::size_t datagrams, std::size_t slot_bytes);

  /// Validate and bind: returns a Host in the `bound` state. Returns a
  /// unique_ptr because shards pin the host's peer table address.
  std::unique_ptr<Host> build();

 private:
  proto::CoConfig proto_;
  std::size_t shards_ = 1;
  struct LocalEntity {
    EntityId id;
    transport::UdpEndpoint endpoint;
  };
  std::vector<LocalEntity> entities_;
  std::vector<std::pair<EntityId, transport::UdpEndpoint>> remote_peers_;
  DeliverFn deliver_;
  proto::CoObserver* observer_ = nullptr;
  obs::trace::Tracer* tracer_ = nullptr;
  double send_loss_ = 0.0;
  std::uint64_t loss_seed_ = Rng::kDefaultSeed;
  std::size_t submit_queue_capacity_ = kDefaultSubmitQueueCapacity;
  std::size_t recv_batch_datagrams_ = 32;
  std::size_t recv_slot_bytes_ = 2048;
};

}  // namespace co::host

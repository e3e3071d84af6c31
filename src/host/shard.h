// Shard — one host thread driving a slice of CO entities over real UDP.
//
// The sharded host runtime (src/host/host.h) splits its local entities
// across N shards; each shard owns its entities outright — their sans-io
// CoCore, the RealtimeDriver + TimerWheel animating it, the entity's bound
// UDP socket, and the SPSC submission ring application threads feed — so
// the shard's event loop touches no shared mutable state and takes no lock:
//
//   app thread --SpscRing--> [shard thread, per entity:
//                               drain ring -> timers -> flush frame]
//                            -> poll(2) ->
//                            [per readable entity: recvmmsg -> unpack
//                               frames -> ONE core step -> flush frame]
//
//   a frame: | msg 1 | msg 2 | ... | msg k |   (k >= 1, <= frame budget)
//            one datagram per peer, each msg a plain proto::encode image
//
// Socket I/O is batched end to end. Outbound, an entity's broadcasts do
// not leave one by one: each is appended to the entity's frame buffer, and
// the frame goes to every peer as one sendmmsg burst as soon as the
// entity's work in the current phase is done — after its ring drain and
// timers, after its socket ingest, and in the shutdown drain — so a frame
// never waits across poll(2) or on another entity. A frame holds at most
// min(kMaxFrameBytes, the RecvBatch slot size) bytes; a message that would
// overflow it ships the frame first and opens the next, and a message
// larger than the budget on its own goes out alone. Inbound, arrivals are
// drained with recvmmsg into a reused RecvBatch, each datagram is unpacked
// all-or-nothing into its messages, and the whole burst enters the core as
// ONE step (the receipt-pipeline amortization). An entity's own copy of a
// broadcast never touches the codec: it loops back in-process as the
// proto::Message itself (a PduRef refcount bump). Deliveries invoke the
// host's callback on the shard thread. A shard is also usable standalone
// on a caller's thread via poll_once() — transport::CoNode is exactly
// that: one shard, one entity.
//
// The loop is event-driven, never tick-paced. A shard sleeps only in
// poll(2), and three things wake it: a readable entity socket, a due timer
// (the poll timeout is clamped to the earliest pending deadline), or the
// shard's Wakeup doorbell (src/host/wakeup.h — eventfd, self-pipe off
// Linux), which producers ring when they push into a ring the shard might
// be sleeping past and which Host::stop()/Shard::wake() ring to interrupt
// an idle sleep. Losing a wakeup is ruled out by a Dekker-style handshake:
// the shard publishes sleeping_ and THEN rechecks every ring behind a
// seq_cst fence; a producer publishes its push and THEN reads sleeping_
// behind the same fence — at least one side must see the other, so either
// the shard aborts the sleep or the producer rings the (level-like)
// doorbell. While traffic is hot the shard skips sleeping entirely and
// busy-polls with a zero timeout for a short spin window after the last
// event (see set_spin), trading a sliver of idle CPU for microsecond
// pickup latency.
//
// Tracing: all events a shard emits (wire_tx per flushed frame, wire_rx
// per datagram, timer, protocol milestones) land on the shard thread, so a
// Tracer shared across the host gets one lock-free stream per shard thread
// — the per-thread single-writer design of src/obs/trace, unchanged.
#pragma once

#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/co/core.h"
#include "src/common/rng.h"
#include "src/driver/realtime_driver.h"
#include "src/host/spsc.h"
#include "src/host/wakeup.h"
#include "src/obs/trace/tracer.h"
#include "src/transport/udp.h"

namespace co::host {

/// Outcome of a submit(): the bounded submission ring replaces the old
/// unbounded mutex-guarded inbox, so callers see backpressure instead of
/// silent unbounded growth.
enum class SubmitResult : std::uint8_t {
  kAccepted = 0,
  kQueueFull = 1,  // ring full — counted in WireStats::submit_rejected
  kStopped = 2,    // host already stopped; nothing will drain the ring
};

inline const char* to_string(SubmitResult r) {
  switch (r) {
    case SubmitResult::kAccepted: return "accepted";
    case SubmitResult::kQueueFull: return "queue_full";
    case SubmitResult::kStopped: return "stopped";
  }
  return "?";
}

/// Wire-level counters one entity accumulates (transport::NodeStats is an
/// alias of this). Written by the owning shard thread — except
/// submit_rejected, which the producer side increments — so read them
/// after stop() or from the shard thread itself.
struct WireStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t datagrams_dropped_injected = 0;
  std::uint64_t send_buffer_drops = 0;  // kernel said EWOULDBLOCK
  std::uint64_t decode_errors = 0;
  std::uint64_t truncated_datagrams = 0;  // larger than a RecvBatch slot
  std::uint64_t submit_rejected = 0;      // bounded submission ring was full

  WireStats& operator+=(const WireStats& o) {
    datagrams_sent += o.datagrams_sent;
    datagrams_received += o.datagrams_received;
    datagrams_dropped_injected += o.datagrams_dropped_injected;
    send_buffer_drops += o.send_buffer_drops;
    decode_errors += o.decode_errors;
    truncated_datagrams += o.truncated_datagrams;
    submit_rejected += o.submit_rejected;
    return *this;
  }
};

/// Delivery callback: entity `at` (local) delivered `data` originated by
/// `src`. Runs on the shard thread that owns `at` — deliveries for one
/// entity are serial, but two entities on different shards deliver
/// concurrently; share state across entities accordingly.
using DeliverFn = std::function<void(EntityId at, EntityId src,
                                     const std::vector<std::uint8_t>& data)>;

/// Default busy-poll window: how long after the last event a shard keeps
/// polling with a zero timeout before it sleeps (Shard::set_spin).
inline constexpr std::chrono::microseconds kDefaultSpin{100};

/// Ceiling on one blocking poll when no timer is pending. Purely a safety
/// net — doorbell rings, readable sockets, and timers all interrupt or
/// bound the sleep — never a pacing tick.
inline constexpr std::chrono::milliseconds kIdlePollCap{500};

/// Largest frame a shard packs: one Ethernet MTU's UDP payload (1500 B
/// minus the 20-byte IPv4 and 8-byte UDP headers). A shard further caps
/// its frames at its own RecvBatch slot size, so a receiver built with the
/// same config never truncates one.
inline constexpr std::size_t kMaxFrameBytes = 1472;

/// The poll(2) timeout for an event loop that wants to sleep at most
/// `cap_ms` but no longer than until `earliest` (the next timer deadline,
/// if any; `now` in the same clock domain). All arithmetic is 64-bit and
/// the result is clamped to [0, INT_MAX]: the regression this guards
/// against was a far-future deadline (> INT_MAX ms away) wrapping the
/// narrowing Tick -> int cast negative, which poll() clamps to 0 — turning
/// an idle loop into a 100%-CPU busy spin.
int clamped_poll_wait_ms(std::int64_t cap_ms, time::Tick now,
                         std::optional<time::Deadline> earliest);

/// Everything one local entity needs, assembled by HostBuilder/NodeBuilder.
struct EntityRuntimeConfig {
  EntityId id = kNoEntity;
  proto::CoConfig proto;
  transport::UdpSocket socket;  // already bound
  /// Shared user observer (nullable; callbacks run on the shard thread, so
  /// an observer shared across shards must be thread-safe).
  proto::CoObserver* observer = nullptr;
  /// Shared binary event tracer (nullable; per-thread streams make sharing
  /// across shards free).
  obs::trace::Tracer* tracer = nullptr;
  /// Test hook: drop outgoing datagrams (to peers other than self) with
  /// this probability — loopback UDP practically never loses packets. The
  /// unit of loss is a whole frame to one peer.
  double send_loss_probability = 0.0;
  std::uint64_t loss_seed = Rng::kDefaultSeed;
  /// Capacity of the SPSC submission ring (rounded up to a power of two).
  std::size_t submit_queue_capacity = 1024;
};

class Shard;

/// One local entity, owned by its shard: core + driver + socket + queues.
/// Everything except submit() runs on the shard thread. The runtime is its
/// core's observer while a tracer or an observer is attached: each record
/// goes to the shard's Tracer stream, then to the shared observer.
class EntityRuntime final : private driver::RealtimeEnv,
                            private proto::CoObserver {
 public:
  EntityRuntime(EntityRuntimeConfig config, Shard& shard);

  EntityRuntime(const EntityRuntime&) = delete;
  EntityRuntime& operator=(const EntityRuntime&) = delete;

  EntityId id() const { return id_; }
  transport::UdpSocket& socket() { return socket_; }
  const WireStats& wire_stats() const { return stats_; }
  const proto::CoCore& core() const { return *core_; }

  /// Producer side of the submission ring. Contract: ONE producer thread
  /// per entity at a time (the Host documents this; CoNode serializes its
  /// producers behind a mutex). Never blocks; a full ring rejects. Rings
  /// the owning shard's doorbell when the shard may be sleeping.
  ///
  /// Returns kStopped once the shard has run its shutdown drain — after
  /// that point nothing will ever pop the ring again, so accepting would
  /// be a silent loss. A submit that raced the drain itself may get
  /// kStopped even though the drain picked it up (processed-but-reported-
  /// stopped); the guarantee is one-sided: kAccepted implies the shard
  /// WILL process it.
  SubmitResult submit(std::vector<std::uint8_t> data, proto::DstMask dst);

  /// Submissions accepted but not yet popped by the shard. Exact once the
  /// shard thread has stopped; elsewhere momentarily stale.
  std::size_t pending_submissions() const {
    return submissions_.size_approx();
  }

 private:
  friend class Shard;

  // driver::RealtimeEnv — effects fan out through the owning shard.
  void broadcast(const proto::Message& msg) override;
  void deliver(const proto::CoPdu& pdu) override;

  // proto::CoObserver — the core's records, already stamped with the
  // shard clock (every driver call passes its `now` as Input::at).
  void on_event(const proto::Record& r) override;

  struct Submission {
    std::vector<std::uint8_t> data;
    proto::DstMask dst = proto::kEveryone;
  };

  EntityId id_;
  std::size_t n_;
  Shard& shard_;
  transport::UdpSocket socket_;
  obs::trace::Tracer* tracer_;
  proto::CoObserver* observer_;
  std::unique_ptr<proto::CoCore> core_;
  std::unique_ptr<driver::RealtimeDriver> driver_;
  SpscRing<Submission> submissions_;
  // Cleared by the shard's shutdown drain: producers that observe it false
  // get kStopped instead of pushing into a ring nobody will ever pop.
  std::atomic<bool> accepting_{true};
  double send_loss_probability_;
  Rng loss_rng_;
  WireStats stats_;
  // Reused scratch: decoded arrivals of the current socket burst.
  std::vector<proto::MessageArrived> arrivals_;
  // Own broadcasts looped back in-process as the messages themselves
  // (filled during an effect replay, drained by Shard::pump_self right
  // after the step). The entity's own PDUs must NOT ride the UDP socket:
  // the kernel may drop a self-datagram under load, and an entity cannot
  // RET itself — report_loss(self) is a protocol invariant violation, not
  // a recoverable loss.
  std::vector<proto::Message> self_loop_;
  // The frame being packed: the encodings of this entity's broadcasts of
  // the current phase, back to back, and how many there are. Shard::flush
  // ships it to every peer.
  std::vector<std::uint8_t> frame_;
  std::uint32_t frame_msgs_ = 0;
};

class Shard {
 public:
  /// `peers` is the cluster endpoint table (indexed by EntityId, shared by
  /// every shard of the host, frozen before the shard first polls) and
  /// `epoch` the host-wide clock origin, so ticks are comparable across
  /// shards. `deliver` may be null (deliveries are then dropped).
  Shard(std::size_t index, const std::vector<transport::UdpEndpoint>* peers,
        const DeliverFn* deliver,
        std::chrono::steady_clock::time_point epoch,
        std::size_t recv_batch_datagrams = 32,
        std::size_t recv_slot_bytes = 2048);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  std::size_t index() const { return index_; }

  /// Construct an entity on this shard (setup phase, before polling).
  EntityRuntime& add_entity(EntityRuntimeConfig config);

  std::size_t entity_count() const { return entities_.size(); }
  EntityRuntime& entity(std::size_t i) { return *entities_[i]; }
  const EntityRuntime& entity(std::size_t i) const { return *entities_[i]; }

  /// One event-loop iteration on the CALLER's thread: drain submission
  /// rings, fire due timers, then wait for datagrams or a doorbell ring
  /// (at most `max_wait`, bounded by the earliest pending timer; zero
  /// while inside the post-activity spin window) and ingest them in
  /// batches. Every frame packed during the call has left when it returns.
  /// Returns true if anything happened.
  bool poll_once(std::chrono::milliseconds max_wait);

  /// Thread body: poll_once until `stop` becomes true, then run one final
  /// submission drain so nothing accepted into a ring dies there silently.
  /// Callers flip `stop` and then wake() — the shard may be mid-sleep.
  void run(const std::atomic<bool>& stop);

  /// Ring the shard's doorbell from any thread: a sleeping poll returns
  /// immediately. Used by Host::stop()/CoNode::stop(); submission wakeups
  /// happen automatically inside EntityRuntime::submit().
  void wake() { wakeup_.notify(); }

  /// Busy-poll window: after any event, the loop polls with a zero
  /// timeout until `window` has passed without activity, then goes back
  /// to sleeping in poll(2). Zero disables spinning (sleep immediately).
  /// Call before the shard thread starts.
  void set_spin(std::chrono::microseconds window) {
    spin_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(window)
                   .count();
  }

  /// Pin the shard thread to `cpu` when run() starts (-1 = unpinned).
  /// Best effort: a failed or unsupported set_affinity is ignored. Call
  /// before start().
  void set_cpu(int cpu) { cpu_ = cpu; }
  int pinned_cpu() const { return cpu_; }

  /// Relaxed hint updated after every loop iteration: true when every
  /// entity on this shard was quiescent (nothing owed, rings empty) at the
  /// end of the last poll.
  bool quiescent_hint() const {
    return quiescent_.load(std::memory_order_relaxed);
  }

  time::Tick wall_now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

 private:
  friend class EntityRuntime;

  /// Loop the own copy back and append the message to e's frame, shipping
  /// the frame first if the message would overflow the budget.
  void broadcast_from(EntityRuntime& e, const proto::Message& msg);
  /// Ship e's frame (if it holds anything) and start an empty one.
  void flush(EntityRuntime& e);
  /// Send the first `bytes` of e's frame, `msgs` messages, to every peer.
  void send_frame(EntityRuntime& e, std::size_t bytes, std::uint32_t msgs);
  void deliver_from(EntityRuntime& e, const proto::CoPdu& pdu);
  bool drain_submissions(EntityRuntime& e, time::Tick now);
  bool ingest_socket(EntityRuntime& e, time::Tick now);
  /// Feed queued self-broadcasts back into the core (lossless in-process
  /// loopback; loops until the cascade of triggered broadcasts settles).
  void pump_self(EntityRuntime& e, time::Tick now);
  /// Shutdown: refuse further submits, then drain what was accepted.
  void close_and_drain();
  /// Apply the set_cpu() pin to the calling thread (best effort).
  void apply_affinity() const;

  std::size_t index_;
  const std::vector<transport::UdpEndpoint>* peers_;
  const DeliverFn* deliver_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<EntityRuntime>> entities_;
  // pollfds_[0] is the wakeup doorbell; entity i's socket is at i + 1.
  std::vector<pollfd> pollfds_;
  transport::RecvBatch recv_batch_;
  // min(kMaxFrameBytes, the RecvBatch slot size).
  std::size_t frame_budget_;
  // Reused scratch: the messages of one arriving datagram.
  std::vector<proto::Message> rx_frame_;
  std::vector<transport::TxDatagram> tx_scratch_;
  // The loop pass's clock reading (restamped after a poll that returned
  // events): stamps the wire_tx record of every frame sent in the pass.
  time::Tick pass_now_ = 0;
  Wakeup wakeup_;
  // True while the shard is committed to (or inside) a blocking poll;
  // paired with the producer-side fence in EntityRuntime::submit (see the
  // file comment for the lost-wakeup argument).
  std::atomic<bool> sleeping_{false};
  std::int64_t spin_ns_ = kDefaultSpin.count() * 1000;
  time::Tick last_activity_ = 0;
  int cpu_ = -1;
  std::atomic<bool> quiescent_{false};
};

}  // namespace co::host

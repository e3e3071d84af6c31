// Shard — one host thread driving a slice of CO entities over one UDP socket.
//
// The sharded host runtime (src/host/host.h) splits its local entities
// across N shards. A shard owns its entities outright — their sans-io
// CoCore, the TimerWheel holding each core's timers, and the SPSC
// submission ring application threads feed. It steps each core itself and
// replays the effects in emission order (Shard::step), and it is the
// network endpoint: it binds ONE UDP socket that all its entities send and
// receive through. The shard's event loop touches no shared mutable state
// and takes no lock:
//
//   app thread --SpscRing--> [shard thread: per entity: drain ring ->
//                               timers; pump local copies; flush frame]
//                            -> ppoll(2) ->
//                            [recvmmsg -> decode each datagram once ->
//                               ONE core step per entity; pump local
//                               copies; flush frame]
//
//   a frame: | msg 1 | msg 2 | ... | msg k |   (k >= 1, <= frame budget)
//            the broadcasts of every entity on the shard, in the order
//            they were emitted, each a plain proto::encode image; one
//            datagram per destination endpoint
//
// Local delivery. A broadcast reaches the entities of its own shard, its
// sender included, in-process as the proto::Message itself (a PduRef
// refcount bump): it is queued once, in emission order, and every entity
// on the shard takes the queue as one step, again and again until the
// cascade of broadcasts those steps trigger settles. The path is lossless
// and never touches the codec or the socket.
//
// The wire. The same broadcasts are appended, in emission order, to the
// shard's one frame, and a frame goes once to each destination endpoint:
// every other shard of this host and every distinct remote endpoint (peers
// that share an endpoint share the datagram). A frame is flushed when a
// phase of the loop is done — after the ring-drain and timer loop over the
// entities, after the socket ingest, and in the shutdown drain — so it
// never waits across ppoll(2). A frame holds at most kMaxFrameBytes bytes;
// a message that would overflow it ships the frame first and opens the
// next, and a message larger than that on its own goes out alone. One
// frame in emission order is what keeps a confirmation behind the PDU it
// confirms: an entity that accepts p in-process and confirms it emits the
// confirmation after p, so the two leave this socket in that order (on a
// host of two shards, no entity can see a confirmation of p before p).
// Inbound, arrivals are drained with recvmmsg into a reused RecvBatch of
// kRecvBatchDatagrams slots, each datagram is decoded once, all or
// nothing, and every entity takes the whole burst as ONE step (the
// receipt-pipeline amortization). A message is dropped at this edge if its
// src is an entity of this shard or if the datagram did not come from
// src's endpoint in the peer table. Deliveries invoke the host's callback
// on the shard thread.
// Before the host starts its shard threads, a caller may also drive a
// shard on its own thread via poll_once() (Host::shard()).
//
// The loop is event-driven, never tick-paced. A shard sleeps only in
// ppoll(2), and three things wake it: a readable socket, a due timer (the
// timeout is the exact nanoseconds to the earliest pending deadline), or
// the shard's Wakeup doorbell (src/host/wakeup.h — eventfd, self-pipe off
// Linux), which producers ring when they push into a ring the shard might
// be sleeping past and which Host::stop()/Shard::wake() ring to interrupt
// an idle sleep. Losing a wakeup is ruled out by a Dekker-style handshake:
// the shard publishes sleeping_ and THEN rechecks every ring behind a
// seq_cst fence; a producer publishes its push and THEN reads sleeping_
// behind the same fence — at least one side must see the other, so either
// the shard aborts the sleep or the producer rings the (level-like)
// doorbell. While an exchange is open — some entity on the shard has data
// in flight or a last PDU that still owes a successor
// (CoCore::exchange_open()), or a submission waits in a ring — the shard
// skips sleeping and busy-polls with a zero timeout for a short spin
// window after the last event (see set_spin), so the answer the exchange
// is waiting for is picked up in microseconds. Once every exchange on the
// shard is closed it sleeps at once: no entity on it waits for an answer,
// none answers an ack-only PDU before its defer timer, and the data PDU or
// submission that opens the next exchange wakes it through the socket or
// the doorbell, at the price of one wake-up. The predicate is read once
// per pass, in the loop that also publishes quiescent_hint().
//
// Tracing: all events a shard emits (wire_tx per flushed frame, wire_rx
// per datagram, submit, timer, protocol milestones) land on the shard
// thread, so a Tracer shared across the host gets one lock-free stream per
// shard thread — the per-thread single-writer design of src/obs/trace.
#pragma once

#include <poll.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/co/core.h"
#include "src/co/effects.h"
#include "src/common/rng.h"
#include "src/host/spsc.h"
#include "src/host/timer_wheel.h"
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

/// Wire-level counters of one shard's socket, plus the submissions its
/// entities' rings rejected. The socket counters are written by the shard
/// thread and submit_rejected by the producers, so read them after stop()
/// or from the shard thread itself.
struct WireStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t datagrams_dropped_injected = 0;
  std::uint64_t send_buffer_drops = 0;  // kernel said EWOULDBLOCK
  std::uint64_t decode_errors = 0;
  std::uint64_t truncated_datagrams = 0;  // larger than a RecvBatch slot
  // Decoded messages dropped because their src is an entity of the
  // receiving shard, or because the datagram's UDP source is not src's
  // endpoint in the peer table.
  std::uint64_t forged_src_drops = 0;
  std::uint64_t submit_rejected = 0;  // bounded submission ring was full

  WireStats& operator+=(const WireStats& o) {
    datagrams_sent += o.datagrams_sent;
    datagrams_received += o.datagrams_received;
    datagrams_dropped_injected += o.datagrams_dropped_injected;
    send_buffer_drops += o.send_buffer_drops;
    decode_errors += o.decode_errors;
    truncated_datagrams += o.truncated_datagrams;
    forged_src_drops += o.forged_src_drops;
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

/// Default busy-poll window: how long after the last event a shard with an
/// open exchange keeps polling with a zero timeout before it sleeps
/// (Shard::set_spin). HostBuilder::build() uses it when the machine has a
/// core per shard plus one, and zero otherwise.
inline constexpr std::chrono::microseconds kDefaultSpin{100};

/// Ceiling on one blocking poll when no timer is pending. Purely a safety
/// net — doorbell rings, readable sockets, and timers all interrupt or
/// bound the sleep — never a pacing tick.
inline constexpr std::chrono::milliseconds kIdlePollCap{500};

/// Largest frame a shard packs: one Ethernet MTU's UDP payload (1500 B
/// minus the 20-byte IPv4 and 8-byte UDP headers).
inline constexpr std::size_t kMaxFrameBytes = 1472;

/// Receive batching: datagrams per recvmmsg(2) burst and bytes per slot. A
/// slot holds the largest frame, so no shard truncates another's.
inline constexpr std::size_t kRecvBatchDatagrams = 32;
inline constexpr std::size_t kRecvSlotBytes = 2048;
static_assert(kMaxFrameBytes <= kRecvSlotBytes);

/// The ppoll(2) timeout, in nanoseconds, for an event loop that wants to
/// sleep at most `cap_ms` but no longer than until `earliest` (the next
/// timer deadline, if any; `now` in the same clock domain). Exact: a due
/// or past-due deadline waits 0 and one 300 us out waits 300 us. All
/// arithmetic is 64-bit and saturating, so the result is never negative:
/// the regression this guards against was a far-future deadline wrapping
/// a narrowing Tick -> int cast negative, which poll() clamps to 0 —
/// turning an idle loop into a 100%-CPU busy spin.
std::int64_t clamped_poll_wait_ns(std::int64_t cap_ms, time::Tick now,
                                  std::optional<time::Deadline> earliest);

/// Capacity of an entity's SPSC submission ring.
inline constexpr std::size_t kSubmitQueueCapacity = 1024;

/// Free ingress-buffer units every entity advertises as BUF. Real sockets
/// expose no portable count, so this is a generous constant: the kernel
/// buffer dwarfs the protocol's 2nW working set.
inline constexpr BufUnits kAdvertisedFreeBuffer = 1u << 16;

/// Everything one local entity needs, assembled by HostBuilder.
struct EntityRuntimeConfig {
  EntityId id = kNoEntity;
  proto::CoConfig proto;
  /// Shared user observer (nullable; callbacks run on the shard thread, so
  /// an observer shared across shards must be thread-safe).
  proto::CoObserver* observer = nullptr;
};

/// Everything one shard needs, assembled by HostBuilder.
struct ShardConfig {
  transport::UdpSocket socket;  // already bound: the shard's endpoint
  /// Shared binary event tracer (nullable; per-thread streams make sharing
  /// across shards free). It takes the shard's wire and timer records, the
  /// submit records and its cores' protocol records.
  obs::trace::Tracer* tracer = nullptr;
  /// Test hook: drop outgoing datagrams with this probability — loopback
  /// UDP practically never loses packets. The unit of loss is a whole
  /// frame to one destination endpoint; in-process copies are never lost.
  double send_loss_probability = 0.0;
  std::uint64_t loss_seed = Rng::kDefaultSeed;
};

class Shard;

/// One local entity, owned by its shard: core + timer wheel + submission
/// ring. Everything except submit() runs on the shard thread. The runtime
/// is its core's observer while a tracer or an observer is attached: each
/// record goes to the shard's Tracer stream, then to the shared observer.
class EntityRuntime final : private proto::CoObserver {
 public:
  EntityRuntime(EntityRuntimeConfig config, Shard& shard);

  EntityRuntime(const EntityRuntime&) = delete;
  EntityRuntime& operator=(const EntityRuntime&) = delete;

  EntityId id() const { return id_; }
  const proto::CoCore& core() const { return *core_; }
  /// Submissions this entity's full ring refused (kQueueFull).
  std::uint64_t submit_rejected() const { return submit_rejected_; }

  /// Producer side of the submission ring. Contract: ONE producer thread
  /// per entity at a time (the Host documents this). Never blocks; a full
  /// ring rejects. Rings the owning shard's doorbell when the shard may be
  /// sleeping.
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

  // proto::CoObserver — the core's records, already stamped with the
  // shard clock (every step passes its `now` as Input::at).
  void on_event(const proto::Record& r) override;

  struct Submission {
    std::vector<std::uint8_t> data;
    proto::DstMask dst = proto::kEveryone;
  };

  EntityId id_;
  Shard& shard_;
  proto::CoObserver* observer_;
  std::unique_ptr<proto::CoCore> core_;
  TimerWheel wheel_;
  SpscRing<Submission> submissions_;
  // Cleared by the shard's shutdown drain: producers that observe it false
  // get kStopped instead of pushing into a ring nobody will ever pop.
  std::atomic<bool> accepting_{true};
  std::uint64_t submit_rejected_ = 0;  // producer side
};

class Shard {
 public:
  /// `peers` is the cluster endpoint table (indexed by EntityId, shared by
  /// every shard of the host, frozen before the shard first polls) and
  /// `epoch` the host-wide clock origin, so ticks are comparable across
  /// shards. `deliver` may be null (deliveries are then dropped).
  Shard(std::size_t index, ShardConfig config,
        const std::vector<transport::UdpEndpoint>* peers,
        const DeliverFn* deliver,
        std::chrono::steady_clock::time_point epoch);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  std::size_t index() const { return index_; }

  /// The bound address of the shard's socket: the endpoint of every entity
  /// on the shard.
  transport::UdpEndpoint endpoint() const { return endpoint_; }

  /// Construct an entity on this shard (setup phase, before polling).
  EntityRuntime& add_entity(EntityRuntimeConfig config);

  std::size_t entity_count() const { return entities_.size(); }
  EntityRuntime& entity(std::size_t i) { return *entities_[i]; }
  const EntityRuntime& entity(std::size_t i) const { return *entities_[i]; }

  /// The socket's counters plus the submissions the entities' rings
  /// rejected.
  WireStats wire_stats() const;

  /// One event-loop iteration on the CALLER's thread: drain submission
  /// rings, fire due timers, then wait for datagrams or a doorbell ring
  /// (at most `max_wait`, bounded by the earliest pending timer; zero
  /// while inside the post-activity spin window of an open exchange) and
  /// ingest them in batches. Every frame packed during the call has left
  /// when it returns. Returns true if anything happened.
  bool poll_once(std::chrono::milliseconds max_wait);

  /// Thread body: poll_once until `stop` becomes true, then run one final
  /// submission drain so nothing accepted into a ring dies there silently.
  /// Callers flip `stop` and then wake() — the shard may be mid-sleep.
  void run(const std::atomic<bool>& stop);

  /// Ring the shard's doorbell from any thread: a sleeping poll returns
  /// immediately. Used by Host::stop(); submission wakeups happen
  /// automatically inside EntityRuntime::submit().
  void wake() { wakeup_.notify(); }

  /// Busy-poll window: after any event, while some entity on the shard
  /// has an open exchange (CoCore::exchange_open()) or a submission waits
  /// in a ring, the loop polls with a zero timeout until `window` has
  /// passed without activity; otherwise, and after the window, it sleeps
  /// in ppoll(2). Zero disables spinning (sleep immediately). Call before
  /// the shard thread starts.
  void set_spin(std::chrono::microseconds window) {
    spin_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(window)
                   .count();
  }

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
  friend class Host;

  /// Recompute the destination endpoints from the peer table: every
  /// distinct known endpoint except this shard's own. The Host calls it
  /// whenever the table changes, which it may only do while bound.
  void update_destinations();
  /// Queue the in-process copy of `from`'s broadcast and append the
  /// message to the frame, shipping the frame first if the message would
  /// overflow the budget.
  void broadcast_from(EntityId from, const proto::Message& msg);
  /// Ship the frame (if it holds anything) and start an empty one.
  void flush();
  /// Send the first `bytes` of the frame, `msgs` messages, once to every
  /// destination endpoint.
  void send_frame(std::size_t bytes, std::uint32_t msgs);
  void deliver_from(EntityRuntime& e, const proto::CoPdu& pdu);
  /// Step `e`'s core on inputs_ (consumed) at `now`, then replay its
  /// effects in emission order: broadcasts to broadcast_from, deliveries to
  /// deliver_from, timer arms and cancels to e's wheel, each traced.
  void step(EntityRuntime& e, time::Tick now);
  /// One step per submission popped from `e`'s ring, one ring's worth at
  /// most. Returns true if any was popped.
  bool drain_submissions(EntityRuntime& e, time::Tick now);
  /// One step per timer of `e` due at `now`. Returns true if any fired.
  bool fire_timers(EntityRuntime& e, time::Tick now);
  bool ingest_socket(time::Tick now);
  /// Every entity on the shard takes `arrivals` as one step.
  void step_all(const std::vector<proto::MessageArrived>& arrivals,
                time::Tick now);
  /// Feed the queued in-process copies to every entity on the shard
  /// (lossless; loops until the cascade of triggered broadcasts settles).
  void pump_local(time::Tick now);
  /// Shutdown: refuse further submits, then drain what was accepted.
  void close_and_drain();

  std::size_t index_;
  const std::vector<transport::UdpEndpoint>* peers_;
  const DeliverFn* deliver_;
  std::chrono::steady_clock::time_point epoch_;
  transport::UdpSocket socket_;
  transport::UdpEndpoint endpoint_;
  obs::trace::Tracer* tracer_;
  double send_loss_probability_;
  Rng loss_rng_;
  WireStats stats_;  // socket counters; submit_rejected stays per entity
  std::vector<std::unique_ptr<EntityRuntime>> entities_;
  // Where a frame goes: each distinct endpoint of the peer table except
  // endpoint_, in order of first appearance.
  std::vector<transport::UdpEndpoint> dests_;
  // pollfds_[0] is the wakeup doorbell, pollfds_[1] the socket.
  std::array<pollfd, 2> pollfds_{};
  transport::RecvBatch recv_batch_;
  // The frame being packed: the encodings of the shard's broadcasts of
  // the current phase, back to back, and how many there are.
  std::vector<std::uint8_t> frame_;
  std::uint32_t frame_msgs_ = 0;
  // The shard's broadcasts not yet fed to its entities, in emission order
  // (filled during effect replays, drained by pump_local). They never ride
  // the socket: the kernel may drop a datagram under load, and an entity
  // cannot RET itself — report_loss(self) is a protocol invariant
  // violation, not a recoverable loss.
  std::vector<proto::MessageArrived> local_;
  std::vector<proto::MessageArrived> local_batch_;  // the round being fed
  // Reused across steps: the inputs of the step being built and the
  // effects it emitted.
  std::vector<proto::Input> inputs_;
  proto::EffectBatch batch_;
  // Reused scratch: the messages of one arriving datagram, and the
  // accepted messages of one receive burst.
  std::vector<proto::Message> rx_frame_;
  std::vector<proto::MessageArrived> rx_;
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
  // At the end of the last pass: some entity's exchange was open or some
  // ring held a submission. Gates the spin window.
  bool exchange_open_ = false;
  std::atomic<bool> quiescent_{false};
};

}  // namespace co::host

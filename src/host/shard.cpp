#include "src/host/shard.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <cerrno>
#include <limits>
#include <span>
#include <system_error>
#include <utility>
#include <variant>

#include "src/co/wire.h"
#include "src/common/expect.h"

namespace co::host {

// --- EntityRuntime -----------------------------------------------------------

EntityRuntime::EntityRuntime(EntityRuntimeConfig config, Shard& shard)
    : id_(config.id),
      n_(config.proto.n),
      shard_(shard),
      socket_(std::move(config.socket)),
      tracer_(config.tracer),
      observer_(config.observer),
      submissions_(config.submit_queue_capacity),
      send_loss_probability_(config.send_loss_probability),
      loss_rng_(config.loss_seed) {
  CO_EXPECT(id_ >= 0 && static_cast<std::size_t>(id_) < n_);
  CO_EXPECT_MSG(socket_.is_open(), "entity socket must be bound");

  // Unobserved entities keep the core's null observer: no per-record work.
  const bool observed = tracer_ != nullptr || observer_ != nullptr;
  core_ = std::make_unique<proto::CoCore>(
      id_, config.proto,
      observed ? static_cast<proto::CoObserver*>(this) : nullptr);
  driver_ = std::make_unique<driver::RealtimeDriver>(
      *core_, static_cast<driver::RealtimeEnv&>(*this));
  driver_->set_tracer(tracer_);
}

SubmitResult EntityRuntime::submit(std::vector<std::uint8_t> data,
                                   proto::DstMask dst) {
  if (!accepting_.load(std::memory_order_acquire)) return SubmitResult::kStopped;
  if (!submissions_.try_push(Submission{std::move(data), dst})) {
    ++stats_.submit_rejected;
    return SubmitResult::kQueueFull;
  }
  // Dekker handshake with the shard (see shard.h): the push is published
  // above; after this fence, either the shard's pre-sleep/shutdown ring
  // recheck sees it, or we see the shard's sleeping_/accepting_ state and
  // act on it. Both may hold; neither failing is impossible.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!accepting_.load(std::memory_order_relaxed)) {
    // The shutdown drain may or may not have caught the push; report
    // kStopped so the caller never counts on a delivery. Never silent.
    return SubmitResult::kStopped;
  }
  if (shard_.sleeping_.load(std::memory_order_relaxed)) shard_.wake();
  return SubmitResult::kAccepted;
}

void EntityRuntime::broadcast(const proto::Message& msg) {
  shard_.broadcast_from(*this, msg);
}

void EntityRuntime::deliver(const proto::CoPdu& pdu) {
  shard_.deliver_from(*this, pdu);
}

void EntityRuntime::on_event(const proto::Record& r) {
  if (tracer_ != nullptr) tracer_->emit(r);
  if (observer_ != nullptr) observer_->on_event(r);
}

// --- Shard -------------------------------------------------------------------

Shard::Shard(std::size_t index,
             const std::vector<transport::UdpEndpoint>* peers,
             const DeliverFn* deliver,
             std::chrono::steady_clock::time_point epoch,
             std::size_t recv_batch_datagrams, std::size_t recv_slot_bytes)
    : index_(index),
      peers_(peers),
      deliver_(deliver),
      epoch_(epoch),
      recv_batch_(recv_batch_datagrams, recv_slot_bytes),
      frame_budget_(std::min(kMaxFrameBytes, recv_slot_bytes)) {
  CO_EXPECT(peers_ != nullptr);
  // Slot 0 is the doorbell; entity sockets follow at i + 1.
  pollfds_.push_back(pollfd{wakeup_.fd(), POLLIN, 0});
}

EntityRuntime& Shard::add_entity(EntityRuntimeConfig config) {
  entities_.push_back(std::make_unique<EntityRuntime>(std::move(config),
                                                      *this));
  pollfds_.push_back(pollfd{entities_.back()->socket_.fd(), POLLIN, 0});
  return *entities_.back();
}

void Shard::broadcast_from(EntityRuntime& e, const proto::Message& msg) {
  // The own copy loops back in-process (drained by pump_self after the
  // current step): the kernel may drop a self-datagram under load and an
  // entity cannot request retransmission from itself.
  e.self_loop_.push_back(msg);
  const std::size_t held = e.frame_.size();
  proto::encode_append(msg, e.frame_);
  if (held != 0 && e.frame_.size() > frame_budget_) {
    // Over budget: ship the frame as it stood and let this message open
    // the next one.
    send_frame(e, held, e.frame_msgs_);
    e.frame_.erase(e.frame_.begin(),
                   e.frame_.begin() + static_cast<std::ptrdiff_t>(held));
    e.frame_msgs_ = 0;
  }
  ++e.frame_msgs_;
}

void Shard::flush(EntityRuntime& e) {
  if (e.frame_msgs_ == 0) return;
  send_frame(e, e.frame_.size(), e.frame_msgs_);
  e.frame_.clear();
  e.frame_msgs_ = 0;
}

void Shard::send_frame(EntityRuntime& e, std::size_t bytes,
                       std::uint32_t msgs) {
  const std::span<const std::uint8_t> frame(e.frame_.data(), bytes);
  if (e.tracer_ != nullptr)
    e.tracer_->emit(obs::trace::EventId::kWireTx, pass_now_, e.id_,
                    kNoEntity, msgs, static_cast<std::uint32_t>(bytes));
  tx_scratch_.clear();
  const auto& peers = *peers_;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (static_cast<EntityId>(i) == e.id_) continue;  // looped back instead
    if (e.send_loss_probability_ > 0.0 &&
        e.loss_rng_.next_bool(e.send_loss_probability_)) {
      ++e.stats_.datagrams_dropped_injected;
      continue;
    }
    tx_scratch_.push_back(transport::TxDatagram{peers[i], frame});
  }
  const transport::TxResult r = e.socket_.send_many(tx_scratch_);
  e.stats_.datagrams_sent += r.sent;
  e.stats_.send_buffer_drops += r.dropped;
}

void Shard::deliver_from(EntityRuntime& e, const proto::CoPdu& pdu) {
  if (deliver_ != nullptr && *deliver_) (*deliver_)(e.id_, pdu.src, pdu.data);
}

void Shard::pump_self(EntityRuntime& e, time::Tick now) {
  // A pumped PDU may trigger further broadcasts (e.g. a confirmation) whose
  // own copies queue up again; loop until the cascade settles. The cascade
  // is bounded by the protocol: receiving one's own ctrl PDU only updates
  // knowledge tables.
  while (!e.self_loop_.empty()) {
    e.arrivals_.clear();
    for (proto::Message& msg : e.self_loop_)
      e.arrivals_.push_back(proto::MessageArrived{e.id_, std::move(msg)});
    e.self_loop_.clear();
    e.driver_->on_messages(e.arrivals_, now);
  }
}

bool Shard::drain_submissions(EntityRuntime& e, time::Tick now) {
  bool any = false;
  EntityRuntime::Submission s;
  while (e.submissions_.try_pop(s)) {
    e.driver_->submit(std::move(s.data), s.dst, now);
    any = true;
  }
  if (any) pump_self(e, now);
  return any;
}

bool Shard::ingest_socket(EntityRuntime& e, time::Tick now) {
  bool any = false;
  for (;;) {
    const std::size_t got = e.socket_.receive_many(recv_batch_);
    if (got == 0) break;
    any = true;
    e.stats_.datagrams_received += got;
    e.arrivals_.clear();
    for (std::size_t i = 0; i < got; ++i) {
      const auto payload = recv_batch_.payload(i);
      if (e.tracer_ != nullptr)
        e.tracer_->emit(obs::trace::EventId::kWireRx, now, e.id_, kNoEntity,
                        obs::trace::kSeqNone,
                        static_cast<std::uint32_t>(payload.size()));
      if (recv_batch_.truncated(i)) {
        // Larger than a receive slot: the tail is gone, the decode below
        // would fail anyway — treat as loss, like any mangled datagram.
        ++e.stats_.truncated_datagrams;
        ++e.stats_.decode_errors;
        continue;
      }
      rx_frame_.clear();
      if (!proto::try_decode_frame(payload, rx_frame_)) {
        // Garbage anywhere in the datagram (UDP gives no guarantees): the
        // whole frame is one loss, which the protocol recovers from.
        ++e.stats_.decode_errors;
        continue;
      }
      for (proto::Message& msg : rx_frame_) {
        const EntityId src = std::holds_alternative<proto::PduRef>(msg)
                                 ? std::get<proto::PduRef>(msg)->src
                                 : std::get<proto::RetPdu>(msg).src;
        if (src < 0 || static_cast<std::size_t>(src) >= e.n_) {
          ++e.stats_.decode_errors;
          continue;
        }
        e.arrivals_.push_back(proto::MessageArrived{src, std::move(msg)});
      }
    }
    if (!e.arrivals_.empty()) {
      e.driver_->on_messages(e.arrivals_, now);
      pump_self(e, now);
    }
    if (got < recv_batch_.capacity()) break;  // queue drained
  }
  flush(e);
  return any;
}

int clamped_poll_wait_ms(std::int64_t cap_ms, time::Tick now,
                         std::optional<time::Deadline> earliest) {
  std::int64_t wait = std::max<std::int64_t>(cap_ms, 0);
  if (earliest) {
    const time::Tick until = *earliest > now ? *earliest - now : 0;
    // Round up: the timer must be due when the sleep ends. 64-bit all the
    // way — a deadline days out used to wrap an int cast negative here.
    wait = std::min(wait, until / time::kMillisecond + 1);
  }
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  return static_cast<int>(std::min(wait, kIntMax));
}

bool Shard::poll_once(std::chrono::milliseconds max_wait) {
  bool activity = false;

  time::Tick now = wall_now();
  pass_now_ = now;
  for (auto& e : entities_) {
    activity |= drain_submissions(*e, now);
    const bool fired = e->driver_->run_timers(now) > 0;
    if (fired) pump_self(*e, now);
    activity |= fired;
    flush(*e);
  }
  if (activity) last_activity_ = now;

  // Wait for datagrams or a doorbell ring, no longer than the earliest
  // pending timer across every entity on this shard — and not at all
  // while the post-activity spin window is open (busy-poll keeps pickup
  // latency in microseconds while traffic is hot).
  std::optional<time::Deadline> earliest;
  for (const auto& e : entities_)
    if (const auto next = e->driver_->next_deadline())
      if (!earliest || *next < *earliest) earliest = *next;
  const bool hot = spin_ns_ > 0 && now - last_activity_ < spin_ns_;
  int wait_ms = hot ? 0 : clamped_poll_wait_ms(max_wait.count(), now,
                                               earliest);

  if (wait_ms != 0) {
    // Committing to sleep: publish the intent, then recheck every ring
    // behind a seq_cst fence (the Dekker pairing with submit() — a push
    // we miss here guarantees its producer sees sleeping_ and rings the
    // doorbell, which stays readable until drained).
    sleeping_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (const auto& e : entities_) {
      if (!e->submissions_.empty_approx()) {
        wait_ms = 0;
        break;
      }
    }
  }

  for (pollfd& p : pollfds_) p.revents = 0;
  const int r = ::poll(pollfds_.data(),
                       static_cast<nfds_t>(pollfds_.size()), wait_ms);
  sleeping_.store(false, std::memory_order_relaxed);
  if (r < 0 && errno != EINTR)
    throw std::system_error(errno, std::generic_category(), "poll");
  if (r > 0) {
    now = wall_now();  // we may have slept; restamp the batch
    pass_now_ = now;
    if (pollfds_[0].revents & POLLIN) {
      // Doorbell: a producer pushed while we slept (or a wake()). The
      // rings are drained at the top of the next iteration — count it as
      // activity so the spin window opens and that iteration runs hot.
      wakeup_.drain();
      activity = true;
    }
    for (std::size_t i = 0; i < entities_.size(); ++i)
      if (pollfds_[i + 1].revents & POLLIN)
        activity |= ingest_socket(*entities_[i], now);
    if (activity) last_activity_ = now;
  }

  bool quiet = true;
  for (const auto& e : entities_)
    quiet &= e->core_->quiescent() && e->submissions_.empty_approx();
  quiescent_.store(quiet, std::memory_order_relaxed);

  return activity;
}

void Shard::run(const std::atomic<bool>& stop) {
  apply_affinity();
  while (!stop.load(std::memory_order_relaxed)) poll_once(kIdlePollCap);
  close_and_drain();
}

void Shard::close_and_drain() {
  // Mirror image of the sleep handshake: close every ring, fence, then
  // drain. A producer whose push this drain misses is guaranteed (by the
  // same Dekker argument) to observe accepting_ == false and report
  // kStopped — so every submit that returned kAccepted is processed.
  for (auto& e : entities_)
    e->accepting_.store(false, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const time::Tick now = wall_now();
  pass_now_ = now;
  for (auto& e : entities_) {
    drain_submissions(*e, now);
    flush(*e);
  }
}

void Shard::apply_affinity() const {
#if defined(__linux__)
  if (cpu_ < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu_), &set);
  // Best effort: a shrunken cpuset or exotic sandbox refusing the pin is
  // not worth dying over — the loop is correct unpinned.
  (void)::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
#endif
}

}  // namespace co::host

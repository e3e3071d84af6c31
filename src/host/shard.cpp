#include "src/host/shard.h"

#include <algorithm>
#include <cerrno>
#include <ctime>
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
      shard_(shard),
      tracer_(config.tracer),
      observer_(config.observer),
      submissions_(config.submit_queue_capacity) {
  CO_EXPECT(id_ >= 0 && static_cast<std::size_t>(id_) < config.proto.n);

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
    ++submit_rejected_;
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
  shard_.broadcast_from(id_, msg);
}

void EntityRuntime::deliver(const proto::CoPdu& pdu) {
  shard_.deliver_from(*this, pdu);
}

void EntityRuntime::on_event(const proto::Record& r) {
  if (tracer_ != nullptr) tracer_->emit(r);
  if (observer_ != nullptr) observer_->on_event(r);
}

// --- Shard -------------------------------------------------------------------

Shard::Shard(std::size_t index, ShardConfig config,
             const std::vector<transport::UdpEndpoint>* peers,
             const DeliverFn* deliver,
             std::chrono::steady_clock::time_point epoch)
    : index_(index),
      peers_(peers),
      deliver_(deliver),
      epoch_(epoch),
      socket_(std::move(config.socket)),
      tracer_(config.tracer),
      send_loss_probability_(config.send_loss_probability),
      loss_rng_(config.loss_seed),
      recv_batch_(config.recv_batch_datagrams, config.recv_slot_bytes),
      frame_budget_(std::min(kMaxFrameBytes, config.recv_slot_bytes)) {
  CO_EXPECT(peers_ != nullptr);
  CO_EXPECT_MSG(socket_.is_open(), "shard socket must be bound");
  endpoint_ = socket_.local_endpoint();
  pollfds_[0] = pollfd{wakeup_.fd(), POLLIN, 0};
  pollfds_[1] = pollfd{socket_.fd(), POLLIN, 0};
}

EntityRuntime& Shard::add_entity(EntityRuntimeConfig config) {
  entities_.push_back(std::make_unique<EntityRuntime>(std::move(config),
                                                      *this));
  return *entities_.back();
}

WireStats Shard::wire_stats() const {
  WireStats s = stats_;
  for (const auto& e : entities_) s.submit_rejected += e->submit_rejected();
  return s;
}

void Shard::update_destinations() {
  dests_.clear();
  for (const transport::UdpEndpoint& ep : *peers_) {
    // Port 0 is a peer not declared yet; our own endpoint is served
    // in-process.
    if (ep.port == 0 || ep == endpoint_) continue;
    if (std::find(dests_.begin(), dests_.end(), ep) == dests_.end())
      dests_.push_back(ep);
  }
}

void Shard::broadcast_from(EntityId from, const proto::Message& msg) {
  local_.push_back(proto::MessageArrived{from, msg});
  if (dests_.empty()) return;  // every entity is here: nothing to pack
  const std::size_t held = frame_.size();
  proto::encode_append(msg, frame_);
  if (held != 0 && frame_.size() > frame_budget_) {
    // Over budget: ship the frame as it stood and let this message open
    // the next one.
    send_frame(held, frame_msgs_);
    frame_.erase(frame_.begin(),
                 frame_.begin() + static_cast<std::ptrdiff_t>(held));
    frame_msgs_ = 0;
  }
  ++frame_msgs_;
}

void Shard::flush() {
  if (frame_msgs_ == 0) return;
  send_frame(frame_.size(), frame_msgs_);
  frame_.clear();
  frame_msgs_ = 0;
}

void Shard::send_frame(std::size_t bytes, std::uint32_t msgs) {
  const std::span<const std::uint8_t> frame(frame_.data(), bytes);
  if (tracer_ != nullptr)
    tracer_->emit(obs::trace::EventId::kWireTx, pass_now_, kNoEntity,
                  kNoEntity, msgs, static_cast<std::uint32_t>(bytes));
  tx_scratch_.clear();
  for (const transport::UdpEndpoint& to : dests_) {
    if (send_loss_probability_ > 0.0 &&
        loss_rng_.next_bool(send_loss_probability_)) {
      ++stats_.datagrams_dropped_injected;
      continue;
    }
    tx_scratch_.push_back(transport::TxDatagram{to, frame});
  }
  const transport::TxResult r = socket_.send_many(tx_scratch_);
  stats_.datagrams_sent += r.sent;
  stats_.send_buffer_drops += r.dropped;
}

void Shard::deliver_from(EntityRuntime& e, const proto::CoPdu& pdu) {
  if (deliver_ != nullptr && *deliver_) (*deliver_)(e.id_, pdu.src, pdu.data);
}

void Shard::step_all(const std::vector<proto::MessageArrived>& arrivals,
                     time::Tick now) {
  // Each entity steps on its own copy (PduRef refcount bumps): the driver
  // consumes what it is given, and the broadcasts a step triggers land in
  // local_, never in `arrivals`.
  for (auto& e : entities_) {
    e->arrivals_.assign(arrivals.begin(), arrivals.end());
    e->driver_->on_messages(e->arrivals_, now);
  }
}

void Shard::pump_local(time::Tick now) {
  // A pumped message may trigger further broadcasts (e.g. a confirmation)
  // whose copies queue up again; loop until the cascade settles. The
  // protocol bounds it: a confirmation is sent on the spot only after
  // hearing from every other entity since the last send, and the entities
  // of other shards do not take part in a pump.
  while (!local_.empty()) {
    local_batch_.swap(local_);
    step_all(local_batch_, now);
    local_batch_.clear();
  }
}

bool Shard::drain_submissions(EntityRuntime& e, time::Tick now) {
  // At most one ring's worth per pass: a producer that refills the ring as
  // fast as the shard empties it must not hold the loop here forever.
  bool any = false;
  EntityRuntime::Submission s;
  for (std::size_t left = e.submissions_.capacity();
       left != 0 && e.submissions_.try_pop(s); --left) {
    e.driver_->submit(std::move(s.data), s.dst, now);
    any = true;
  }
  return any;
}

bool Shard::ingest_socket(time::Tick now) {
  const auto& peers = *peers_;
  bool any = false;
  for (;;) {
    const std::size_t got = socket_.receive_many(recv_batch_);
    if (got == 0) break;
    any = true;
    stats_.datagrams_received += got;
    rx_.clear();
    for (std::size_t i = 0; i < got; ++i) {
      const auto payload = recv_batch_.payload(i);
      if (tracer_ != nullptr)
        tracer_->emit(obs::trace::EventId::kWireRx, now, kNoEntity,
                      kNoEntity, obs::trace::kSeqNone,
                      static_cast<std::uint32_t>(payload.size()));
      if (recv_batch_.truncated(i)) {
        // Larger than a receive slot: the tail is gone, the decode below
        // would fail anyway — treat as loss, like any mangled datagram.
        ++stats_.truncated_datagrams;
        ++stats_.decode_errors;
        continue;
      }
      rx_frame_.clear();
      if (!proto::try_decode_frame(payload, rx_frame_)) {
        // Garbage anywhere in the datagram (UDP gives no guarantees): the
        // whole frame is one loss, which the protocol recovers from.
        ++stats_.decode_errors;
        continue;
      }
      const transport::UdpEndpoint from = recv_batch_.from(i);
      for (proto::Message& msg : rx_frame_) {
        const EntityId src = std::holds_alternative<proto::PduRef>(msg)
                                 ? std::get<proto::PduRef>(msg)->src
                                 : std::get<proto::RetPdu>(msg).src;
        if (src < 0 || static_cast<std::size_t>(src) >= peers.size()) {
          ++stats_.decode_errors;
          continue;
        }
        // Bind the source: this shard's own entities never reach it over
        // the socket, and every other src speaks from its table endpoint.
        const transport::UdpEndpoint& claimed =
            peers[static_cast<std::size_t>(src)];
        if (claimed == endpoint_ || claimed != from) {
          ++stats_.forged_src_drops;
          continue;
        }
        rx_.push_back(proto::MessageArrived{src, std::move(msg)});
      }
    }
    if (!rx_.empty()) {
      step_all(rx_, now);
      pump_local(now);
    }
    if (got < recv_batch_.capacity()) break;  // queue drained
  }
  flush();
  return any;
}

std::int64_t clamped_poll_wait_ns(std::int64_t cap_ms, time::Tick now,
                                  std::optional<time::Deadline> earliest) {
  // 64-bit and saturating all the way: a huge cap or a deadline days out
  // must never wrap negative.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::int64_t cap = std::max<std::int64_t>(cap_ms, 0);
  std::int64_t wait =
      cap > kMax / time::kMillisecond ? kMax : cap * time::kMillisecond;
  if (earliest) wait = std::min(wait, *earliest > now ? *earliest - now : 0);
  return wait;
}

namespace {

/// Wait on `fds` for at most `wait_ns` nanoseconds: ppoll(2) on Linux.
int poll_for(std::array<pollfd, 2>& fds, std::int64_t wait_ns) {
#if defined(__linux__)
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(wait_ns / time::kSecond);
  ts.tv_nsec = static_cast<long>(wait_ns % time::kSecond);
  return ::ppoll(fds.data(), fds.size(), &ts, nullptr);
#else
  // poll(2) counts whole milliseconds: round up so the timer is due on
  // wake.
  const std::int64_t ms =
      wait_ns / time::kMillisecond + (wait_ns % time::kMillisecond != 0);
  return ::poll(fds.data(), fds.size(),
                static_cast<int>(std::min<std::int64_t>(
                    ms, std::numeric_limits<int>::max())));
#endif
}

}  // namespace

bool Shard::poll_once(std::chrono::milliseconds max_wait) {
  bool activity = false;

  time::Tick now = wall_now();
  pass_now_ = now;
  for (auto& e : entities_) {
    activity |= drain_submissions(*e, now);
    activity |= e->driver_->run_timers(now) > 0;
  }
  pump_local(now);
  flush();
  if (activity) last_activity_ = now;

  // Wait for datagrams or a doorbell ring, no longer than the earliest
  // pending timer across every entity on this shard — and not at all
  // while the post-activity spin window is open and some exchange on the
  // shard is open (busy-poll picks up the answer an exchange waits for in
  // microseconds; see the file comment).
  std::optional<time::Deadline> earliest;
  for (const auto& e : entities_)
    if (const auto next = e->driver_->next_deadline())
      if (!earliest || *next < *earliest) earliest = *next;
  const bool hot =
      exchange_open_ && spin_ns_ > 0 && now - last_activity_ < spin_ns_;
  std::int64_t wait_ns =
      hot ? 0 : clamped_poll_wait_ns(max_wait.count(), now, earliest);

  if (wait_ns != 0) {
    // Committing to sleep: publish the intent, then recheck every ring
    // behind a seq_cst fence (the Dekker pairing with submit() — a push
    // we miss here guarantees its producer sees sleeping_ and rings the
    // doorbell, which stays readable until drained).
    sleeping_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (const auto& e : entities_) {
      if (!e->submissions_.empty_approx()) {
        wait_ns = 0;
        break;
      }
    }
  }

  for (pollfd& p : pollfds_) p.revents = 0;
  const int r = poll_for(pollfds_, wait_ns);
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
    if (pollfds_[1].revents & POLLIN) activity |= ingest_socket(now);
    if (activity) last_activity_ = now;
  }

  // A submission still in a ring opens an exchange in the next pass.
  bool quiet = true;
  bool open = false;
  for (const auto& e : entities_) {
    const bool ring_empty = e->submissions_.empty_approx();
    quiet = quiet && ring_empty && e->core_->quiescent();
    open = open || !ring_empty || e->core_->exchange_open();
  }
  quiescent_.store(quiet, std::memory_order_relaxed);
  exchange_open_ = open;

  return activity;
}

void Shard::run(const std::atomic<bool>& stop) {
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
  for (auto& e : entities_) drain_submissions(*e, now);
  pump_local(now);
  flush();
}

}  // namespace co::host

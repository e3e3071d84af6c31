// RealtimeDriver — drives one CoCore against a wall clock and real I/O.
//
// The realtime counterpart of SimDriver: the owner (a transport event loop)
// stamps every call with the current monotonic-clock tick, and the driver
// replays the core's effects into a RealtimeEnv immediately, in emission
// order. Timers live in a TimerWheel instead of the simulator's scheduler —
// this layer has ZERO src/sim dependencies, which is what makes the UDP
// transport deployable without linking the simulator.
//
// The clock domain is whatever the caller chooses (a host shard uses
// nanoseconds since Host::epoch()); the core only subtracts and compares
// ticks, so the epoch is irrelevant. Deadlines may land in the past
// between polls — they simply fire on the next run_timers().
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "src/co/core.h"
#include "src/co/effects.h"
#include "src/co/time.h"
#include "src/driver/timer_wheel.h"
#include "src/obs/trace/tracer.h"

namespace co::driver {

/// The I/O boundary a realtime deployment implements. Virtual dispatch is
/// fine here: these run once per effect at the edge, not in the protocol.
class RealtimeEnv {
 public:
  virtual ~RealtimeEnv() = default;

  /// Put an encoded copy of `msg` on the medium, to every peer.
  virtual void broadcast(const proto::Message& msg) = 0;
  /// Hand an acknowledged data PDU to the application.
  virtual void deliver(const proto::CoPdu& pdu) = 0;
  /// Free ingress-buffer units to advertise as BUF. Real sockets expose no
  /// portable count, so the default is a generous constant (the kernel
  /// buffer dwarfs the protocol's 2nW working set).
  virtual BufUnits free_buffer() { return BufUnits{1u << 16}; }
};

class RealtimeDriver {
 public:
  /// `core` and `env` are borrowed, not owned; both must outlive the driver.
  RealtimeDriver(proto::CoCore& core, RealtimeEnv& env);

  RealtimeDriver(const RealtimeDriver&) = delete;
  RealtimeDriver& operator=(const RealtimeDriver&) = delete;

  /// A message from `from` arrived off the wire at tick `now`.
  void on_message(EntityId from, const proto::Message& msg, time::Tick now);

  /// Batched arrival ingest: every element of `arrivals` is dispatched as
  /// ONE core step stamped at `now`, so the receipt pipeline (PACK/ACK
  /// scan, sent-log prune, confirmation decision) runs once per socket
  /// burst instead of once per datagram — the wire-side counterpart of the
  /// sans-io core's batch contract. `arrivals` is consumed (moved from)
  /// and cleared, ready for the caller to refill.
  void on_messages(std::vector<proto::MessageArrived>& arrivals,
                   time::Tick now);

  /// Application DT request at tick `now`.
  void submit(std::vector<std::uint8_t> data, proto::DstMask dst,
              time::Tick now);

  /// Idle pump at tick `now`.
  void tick(time::Tick now);

  /// Fire every timer due at `now`, including ones a fired handler re-arms
  /// into the past. Returns the number of timers fired.
  std::size_t run_timers(time::Tick now);

  /// Earliest pending timer deadline — the event loop's poll-timeout bound.
  std::optional<time::Deadline> next_deadline() const {
    return wheel_.next_deadline();
  }

  proto::CoCore& core() { return core_; }

  /// Attach a binary event tracer (not owned; null = off). The driver emits
  /// kSubmit on every DT request and kTimerArm/kTimerCancel/kTimerFire as
  /// timer effects are replayed — the realtime complement of the protocol
  /// milestones the core's own observer reports.
  void set_tracer(obs::trace::Tracer* tracer) { tracer_ = tracer; }

 private:
  void dispatch(proto::Input input);

  void replay(proto::EffectBatch& batch);

  proto::CoCore& core_;
  RealtimeEnv& env_;
  TimerWheel wheel_;
  obs::trace::Tracer* tracer_ = nullptr;
  proto::EffectBatch batch_;  // reused across steps
  std::vector<proto::Input> inputs_;  // reused by on_messages
  time::Tick now_ = 0;  // tick of the input currently being dispatched
};

}  // namespace co::driver

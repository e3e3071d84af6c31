// SimDriver — drives one CoCore on the discrete-event scheduler.
//
// This is the sim-side half of the sans-io split: every scheduler event that
// concerns an entity (a PDU surviving the MC service, a timer firing, an
// application DT request) becomes one Input, and the Effects the core emits
// are replayed into the simulated environment immediately, in emission
// order, within the same scheduler event. That replay discipline is what
// keeps runs bit-identical to the pre-split code: broadcasts reach
// McNetwork::broadcast in the same order (so transit events get the same
// (time, seq) keys), timer arms/cancels consume scheduler sequence numbers
// in the same order, and deliveries hit the application at the same instant.
//
// Timers: the core's one-shot timers map to one TimerHandle slot each. An
// ArmTimer effect overwrites the slot (the core never re-arms a pending
// timer without cancelling first); CancelTimer cancels it; when a slot
// fires, the handle is already spent, so the TimerFired input is dispatched
// with the slot naturally non-pending — the contract TimerFired documents.
//
// The driver owns one EffectBatch and reuses it across steps, so driving
// adds no steady-state allocations.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/co/core.h"
#include "src/co/effects.h"
#include "src/driver/effect_tap.h"
#include "src/sim/scheduler.h"

namespace co::driver {

class SimDriver {
 public:
  /// How effects leave the core: onto the network, into the application,
  /// and where the BUF advertisement comes from. std::function is fine
  /// here — this is the I/O boundary, not the protocol hot path.
  struct Hooks {
    std::function<void(proto::Message)> broadcast;
    std::function<void(const proto::CoPdu&)> deliver;
    std::function<BufUnits()> free_buffer;
  };

  /// `core`, `sched` and the tap (optional) are borrowed, not owned; all
  /// must outlive the driver.
  SimDriver(proto::CoCore& core, sim::Scheduler& sched, Hooks hooks,
            EffectTap* tap = nullptr);

  SimDriver(const SimDriver&) = delete;
  SimDriver& operator=(const SimDriver&) = delete;

  /// A message from `from` reached this entity (network attach callback).
  void on_message(EntityId from, const proto::Message& msg);

  /// Application DT request.
  void submit(std::vector<std::uint8_t> data, proto::DstMask dst);

  proto::CoCore& core() { return core_; }

 private:
  /// Step the core with `input` and replay the resulting effects.
  void dispatch(proto::Input input);
  void on_timer(proto::TimerId timer);

  proto::CoCore& core_;
  sim::Scheduler& sched_;
  Hooks hooks_;
  EffectTap* tap_;
  proto::EffectBatch batch_;  // reused across steps
  sim::TimerHandle timers_[proto::kTimerCount];
};

}  // namespace co::driver

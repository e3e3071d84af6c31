#include "src/driver/sim_driver.h"

#include <utility>
#include <variant>

#include "src/common/expect.h"

namespace co::driver {

SimDriver::SimDriver(proto::CoCore& core, sim::Scheduler& sched, Hooks hooks,
                     EffectTap* tap)
    : core_(core), sched_(sched), hooks_(std::move(hooks)), tap_(tap) {
  CO_EXPECT_MSG(hooks_.broadcast && hooks_.deliver && hooks_.free_buffer,
                "SimDriver needs all three environment hooks");
}

void SimDriver::on_message(EntityId from, const proto::Message& msg) {
  // Copying the Message bumps a PduRef refcount for data PDUs (the steady
  // state); only the rare RetPdu copies its vectors.
  dispatch(proto::Input{sched_.now(), hooks_.free_buffer(),
                        proto::MessageArrived{from, msg}});
}

void SimDriver::submit(std::vector<std::uint8_t> data, proto::DstMask dst) {
  dispatch(proto::Input{sched_.now(), hooks_.free_buffer(),
                        proto::AppSubmit{std::move(data), dst}});
}

void SimDriver::on_timer(proto::TimerId timer) {
  // The handle that fired is already spent (the scheduler marks it before
  // running the action), so the slot is naturally non-pending here — the
  // state TimerFired requires.
  dispatch(proto::Input{sched_.now(), hooks_.free_buffer(),
                        proto::TimerFired{timer}});
}

void SimDriver::dispatch(proto::Input input) {
  batch_.clear();
  core_.step(std::move(input), batch_);
  if (batch_.empty()) return;
  if (tap_ != nullptr) tap_->on_effects(core_.self(), sched_.now(), batch_);
  // Replay in emission order (see file comment). Broadcast only schedules
  // transit events and deliver only records at the application, so nothing
  // here re-enters the core.
  for (proto::Effect& effect : batch_.effects) {
    if (auto* b = std::get_if<proto::BroadcastEffect>(&effect)) {
      hooks_.broadcast(std::move(b->msg));
    } else if (auto* d = std::get_if<proto::DeliverEffect>(&effect)) {
      hooks_.deliver(*d->pdu);
    } else if (auto* arm = std::get_if<proto::ArmTimerEffect>(&effect)) {
      const proto::TimerId id = arm->timer;
      timers_[static_cast<std::size_t>(id)] =
          sched_.schedule_at(arm->deadline, [this, id] { on_timer(id); });
    } else {
      const auto& cancel = std::get<proto::CancelTimerEffect>(effect);
      timers_[static_cast<std::size_t>(cancel.timer)].cancel();
    }
  }
}

}  // namespace co::driver

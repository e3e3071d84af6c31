// StepHarness — drives one sans-io CoCore for unit tests.
//
// The harness plays the role of a driver: it stamps every input with a
// manually advanced clock, steps the core directly, replays the timer
// effects into the host's TimerWheel, and records every Broadcast/Deliver
// effect plus the observer milestones the old CoEnvironment mock used to
// capture.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "src/causality/pdu_key.h"
#include "src/co/core.h"
#include "src/co/effects.h"
#include "src/co/time.h"
#include "src/host/timer_wheel.h"

namespace co::proto {

class StepHarness {
 public:
  StepHarness(EntityId self, const CoConfig& config, BufUnits free_buf = 4096)
      : free_buf_(free_buf), core_(self, config, &recorder_) {
    recorder_.owner = this;
  }

  CoCore& core() { return core_; }

  // --- Inputs, stamped with the harness clock ------------------------------

  void on_message(EntityId from, const Message& msg) {
    step(MessageArrived{from, msg});
  }
  void submit(std::vector<std::uint8_t> data, DstMask dst = kEveryone) {
    step(AppSubmit{std::move(data), dst});
  }

  /// Advance the clock to `t`, firing every timer at its exact deadline
  /// (mirroring the scheduler's run_until semantics).
  void run_until(time::Tick t) {
    while (const auto next = wheel_.next_deadline()) {
      if (*next > t) break;
      if (*next > now_) now_ = *next;
      while (const auto due = wheel_.pop_due(now_)) step(TimerFired{*due});
    }
    if (t > now_) now_ = t;
  }

  time::Tick now() const { return now_; }

  // --- Recorded outputs -----------------------------------------------------

  std::vector<Message> broadcasts;
  std::vector<CoPdu> delivered;
  std::vector<PduKey> traced_sends;
  std::vector<PduKey> traced_accepts;

  std::vector<CoPdu> data_broadcasts() const {
    std::vector<CoPdu> out;
    for (const auto& m : broadcasts)
      if (const auto* p = std::get_if<PduRef>(&m)) out.push_back(**p);
    return out;
  }
  std::vector<RetPdu> ret_broadcasts() const {
    std::vector<RetPdu> out;
    for (const auto& m : broadcasts)
      if (const auto* r = std::get_if<RetPdu>(&m)) out.push_back(*r);
    return out;
  }
  std::size_t ctrl_count() const {
    std::size_t c = 0;
    for (const auto& m : broadcasts)
      if (const auto* p = std::get_if<PduRef>(&m))
        if (!(*p)->is_data()) ++c;
    return c;
  }

 private:
  /// One input at the harness clock; the effects are replayed in emission
  /// order.
  void step(decltype(Input::event) event) {
    batch_.clear();
    core_.step(Input{now_, free_buf_, std::move(event)}, batch_);
    for (const Effect& effect : batch_) {
      if (const auto* b = std::get_if<BroadcastEffect>(&effect))
        broadcasts.push_back(b->msg);
      else if (const auto* d = std::get_if<DeliverEffect>(&effect))
        delivered.push_back(*d->pdu);
      else if (const auto* arm = std::get_if<ArmTimerEffect>(&effect))
        wheel_.arm(arm->timer, arm->deadline);
      else
        wheel_.cancel(std::get<CancelTimerEffect>(effect).timer);
    }
  }

  struct Recorder final : CoObserver {
    StepHarness* owner = nullptr;
    void on_event(const Record& r) override {
      const PduKey k{r.origin, r.seq};
      if (static_cast<EventId>(r.event) == EventId::kSend)
        owner->traced_sends.push_back(k);
      else if (static_cast<EventId>(r.event) == EventId::kAccept)
        owner->traced_accepts.push_back(k);
    }
  };

  time::Tick now_ = 0;
  BufUnits free_buf_;
  Recorder recorder_;
  CoCore core_;
  host::TimerWheel wheel_;
  EffectBatch batch_;  // reused across steps
};

}  // namespace co::proto

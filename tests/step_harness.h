// StepHarness — drives one sans-io CoCore for unit tests.
//
// The harness plays the role of a driver: it stamps every input with a
// manually advanced clock, runs the core through a RealtimeDriver (so the
// TimerWheel replay path gets unit coverage for free), and records every
// Broadcast/Deliver effect plus the observer milestones the old
// CoEnvironment mock used to capture.
#pragma once

#include <cstdint>
#include <vector>

#include "src/causality/pdu_key.h"
#include "src/co/core.h"
#include "src/co/time.h"
#include "src/driver/realtime_driver.h"

namespace co::proto {

class StepHarness final : public driver::RealtimeEnv {
 public:
  StepHarness(EntityId self, const CoConfig& config, BufUnits free_buf = 4096)
      : free_buf_(free_buf),
        core_(self, config, &recorder_),
        driver_(core_, *this) {
    recorder_.owner = this;
  }

  CoCore& core() { return core_; }

  // --- Inputs, stamped with the harness clock ------------------------------

  void on_message(EntityId from, const Message& msg) {
    driver_.on_message(from, msg, now_);
  }
  void submit(std::vector<std::uint8_t> data, DstMask dst = kEveryone) {
    driver_.submit(std::move(data), dst, now_);
  }
  void tick() { driver_.tick(now_); }

  /// Advance the clock to `deadline_time`, firing every timer at its exact
  /// deadline (mirroring the scheduler's run_until semantics).
  void run_until(time::Tick t) {
    while (const auto next = driver_.next_deadline()) {
      if (*next > t) break;
      if (*next > now_) now_ = *next;
      driver_.run_timers(now_);
    }
    if (t > now_) now_ = t;
  }

  time::Tick now() const { return now_; }
  void set_free_buffer(BufUnits b) { free_buf_ = b; }

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
  // driver::RealtimeEnv
  void broadcast(const Message& msg) override { broadcasts.push_back(msg); }
  void deliver(const CoPdu& pdu) override { delivered.push_back(pdu); }
  BufUnits free_buffer() override { return free_buf_; }

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
  driver::RealtimeDriver driver_;
};

}  // namespace co::proto

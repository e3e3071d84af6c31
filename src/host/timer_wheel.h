// TimerWheel — the host's timer store for one sans-io core's one-shot
// timers.
//
// The core owns a fixed, tiny set of timers (proto::TimerId), so the
// "wheel" is simply one slot per timer: armed flag + absolute deadline in
// the shard's clock domain. No allocation, no heap of events, no
// dependency on the simulator's scheduler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "src/co/effects.h"
#include "src/co/time.h"

namespace co::host {

class TimerWheel {
 public:
  /// Arm `timer` to fire at `deadline`, overwriting any previous deadline
  /// (the core cancels before re-arming, so overwrite is the full story).
  void arm(proto::TimerId timer, time::Deadline deadline) {
    Slot& s = slots_[static_cast<std::size_t>(timer)];
    s.armed = true;
    s.deadline = deadline;
    s.seq = ++arm_seq_;
  }

  /// Disarm `timer`; a no-op when it is not armed (cancel-after-fire).
  void cancel(proto::TimerId timer) {
    slots_[static_cast<std::size_t>(timer)].armed = false;
  }

  bool pending(proto::TimerId timer) const {
    return slots_[static_cast<std::size_t>(timer)].armed;
  }

  /// Earliest armed deadline, if any — the poll-timeout bound for event
  /// loops mapping wall time onto the wheel.
  std::optional<time::Deadline> next_deadline() const {
    std::optional<time::Deadline> next;
    for (const Slot& s : slots_)
      if (s.armed && (!next || s.deadline < *next)) next = s.deadline;
    return next;
  }

  /// Pop the earliest timer due at `now` (deadline <= now), disarming it.
  /// Ties break by arm order, mirroring the scheduler's FIFO tie-break for
  /// equal-time events (a defer re-arm chain can land on the same tick as
  /// a retransmit deadline). Callers loop: a handler may re-arm.
  std::optional<proto::TimerId> pop_due(time::Tick now) {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < proto::kTimerCount; ++i) {
      const Slot& s = slots_[i];
      if (!s.armed || s.deadline > now) continue;
      if (!best || s.deadline < slots_[*best].deadline ||
          (s.deadline == slots_[*best].deadline && s.seq < slots_[*best].seq))
        best = i;
    }
    if (!best) return std::nullopt;
    slots_[*best].armed = false;
    return static_cast<proto::TimerId>(*best);
  }

 private:
  struct Slot {
    bool armed = false;
    time::Deadline deadline = 0;
    std::uint64_t seq = 0;
  };
  Slot slots_[proto::kTimerCount];
  std::uint64_t arm_seq_ = 0;
};

}  // namespace co::host

// Interned trace event ids.
//
// Protocol events reuse the co::proto::cat::CatId values verbatim (pinned
// by static_asserts below), so a record's `event` field needs no mapping
// table to recover the canonical category string. Driver/transport events
// occupy a disjoint block starting at 16. Values are part of the trace-file
// format: append only, never renumber.
#pragma once

#include <cstdint>
#include <string_view>

#include "src/co/trace_categories.h"

namespace co::obs::trace {

enum class EventId : std::uint16_t {
  // Protocol milestones — numerically identical to proto::cat::CatId.
  kSend = 0,
  kAccept = 1,
  kPark = 2,
  kDup = 3,
  kMalformed = 4,
  kF1 = 5,
  kF2 = 6,
  kRet = 7,
  kRtx = 8,
  kPack = 9,
  kAck = 10,
  kDeliver = 11,
  kProbe = 12,
  // Driver / transport instrumentation.
  kTimerArm = 16,     // arg = TimerId, seq = absolute deadline (ns)
  kTimerCancel = 17,  // arg = TimerId
  kTimerFire = 18,    // arg = TimerId
  kSubmit = 19,       // application DT request; arg = payload bytes
  kWireTx = 20,       // frame out, one datagram to each peer; arg = frame
                      // bytes, seq = messages in the frame
  kWireRx = 21,       // datagram in;  arg = bytes, origin = channel peer
  kViolation = 22,    // oracle/invariant failure; flight recorder trigger
};

#define CO_TRACE_PIN(name)                                    \
  static_assert(static_cast<std::uint16_t>(EventId::k##name) == \
                static_cast<std::uint16_t>(proto::cat::CatId::k##name))
CO_TRACE_PIN(Send);
CO_TRACE_PIN(Accept);
CO_TRACE_PIN(Park);
CO_TRACE_PIN(Dup);
CO_TRACE_PIN(Malformed);
CO_TRACE_PIN(F1);
CO_TRACE_PIN(F2);
CO_TRACE_PIN(Ret);
CO_TRACE_PIN(Rtx);
CO_TRACE_PIN(Pack);
CO_TRACE_PIN(Ack);
CO_TRACE_PIN(Deliver);
CO_TRACE_PIN(Probe);
#undef CO_TRACE_PIN

constexpr EventId to_event(proto::cat::CatId id) {
  return static_cast<EventId>(static_cast<std::uint16_t>(id));
}

/// Display name: the canonical proto::cat string for protocol events, a
/// stable label for driver events, "?" for unknown ids (corrupt files).
constexpr std::string_view event_name(EventId e) {
  if (static_cast<std::uint16_t>(e) < proto::cat::kCatCount)
    return proto::cat::cat_name(static_cast<proto::cat::CatId>(e));
  switch (e) {
    case EventId::kTimerArm: return "timer_arm";
    case EventId::kTimerCancel: return "timer_cancel";
    case EventId::kTimerFire: return "timer_fire";
    case EventId::kSubmit: return "submit";
    case EventId::kWireTx: return "wire_tx";
    case EventId::kWireRx: return "wire_rx";
    case EventId::kViolation: return "violation";
    default: return "?";
  }
}

}  // namespace co::obs::trace

// Interned trace event ids — the one event vocabulary of the code base.
//
// CoCore reports its protocol milestones as records carrying these ids
// (src/co/observer.h); drivers and transports add their own events in a
// disjoint block starting at 16. Values are part of the trace-file format:
// append only, never renumber. Header-only and dependency-free, so the
// sans-io core may include it (scripts/check_layering.py).
#pragma once

#include <cstdint>
#include <string_view>

namespace co::obs::trace {

enum class EventId : std::uint16_t {
  // Protocol milestones, reported by CoCore.
  kSend = 0,       // original broadcast; arg = 1 for data, 0 for ack-only
  kAccept = 1,     // acceptance action (§4.2)
  kPark = 2,       // out-of-order PDU parked behind a gap
  kDup = 3,        // duplicate dropped
  kMalformed = 4,  // shape-invalid PDU/RET dropped; arg = ACK lanes
  kF1 = 5,         // failure condition (1); (origin, seq) = first missing,
                   // arg = gap length
  kF2 = 6,         // failure condition (2); same payload as kF1
  kRet = 7,        // RET request sent; (origin, seq) = (LSRC, LSEQ)
  kRtx = 8,        // selective rebroadcast of an own PDU
  kPack = 9,       // pre-acknowledgment (§4.4)
  kAck = 10,       // acknowledgment (§4.5)
  kDeliver = 11,   // handed to the application (precedes its kAck)
  kProbe = 12,     // tail-loss probe; (origin, seq) = (self, next SEQ)
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

/// Protocol ids occupy [0, kProtocolEventCount).
inline constexpr std::uint16_t kProtocolEventCount = 13;

/// Stable display name; "?" for unknown ids (a corrupt trace record must
/// not index out of bounds).
constexpr std::string_view event_name(EventId e) {
  switch (e) {
    case EventId::kSend: return "send";
    case EventId::kAccept: return "accept";
    case EventId::kPark: return "park";
    case EventId::kDup: return "dup";
    case EventId::kMalformed: return "malformed";
    case EventId::kF1: return "f1";
    case EventId::kF2: return "f2";
    case EventId::kRet: return "ret";
    case EventId::kRtx: return "rtx";
    case EventId::kPack: return "pack";
    case EventId::kAck: return "ack";
    case EventId::kDeliver: return "deliver";
    case EventId::kProbe: return "probe";
    case EventId::kTimerArm: return "timer_arm";
    case EventId::kTimerCancel: return "timer_cancel";
    case EventId::kTimerFire: return "timer_fire";
    case EventId::kSubmit: return "submit";
    case EventId::kWireTx: return "wire_tx";
    case EventId::kWireRx: return "wire_rx";
    case EventId::kViolation: return "violation";
  }
  return "?";
}

}  // namespace co::obs::trace

// The fixed-size binary trace record — the tracer's only wire unit.
//
// 32 bytes, trivially copyable, no pointers: a record can be memcpy'd into
// a ring slot, written to disk verbatim, and read back on any same-endian
// machine. Fields:
//
//   at      driver timestamp in ns (co::time::Tick; sim time for the sim
//           driver, monotonic-since-node-start for the realtime driver;
//           CoCore stamps its records with the step's Input::at)
//   seq     the subject PDU's sequence number (kSeqNone for events with no
//           PDU subject, e.g. timer arms)
//   origin  the subject PDU's source entity (causal context: (origin, seq)
//           is the cross-entity PduKey the post-processor joins flows on)
//   actor   the entity on whose track this event happened
//   event   interned EventId (src/obs/trace/events.h)
//   stream  writer stream id (per-thread; assigned by the Tracer, 0 until
//           then)
//   arg     small event-specific payload (gap length, byte count, timer id)
//
// The layout is pinned by static_asserts and by the golden-bytes test in
// tests/obs_trace_test.cpp: changing it is a trace-file format break and
// must bump kTraceVersion in src/obs/trace/file.h.
#pragma once

#include <cstdint>
#include <type_traits>

#include "src/co/time.h"
#include "src/common/types.h"

namespace co::obs::trace {

/// `seq` value for records whose event has no PDU subject.
inline constexpr std::uint64_t kSeqNone = ~std::uint64_t{0};

struct Record {
  time::Tick at = 0;          // 8 bytes
  std::uint64_t seq = 0;      // 8
  EntityId origin = kNoEntity;  // 4
  EntityId actor = kNoEntity;   // 4
  std::uint16_t event = 0;    // 2
  std::uint16_t stream = 0;   // 2
  std::uint32_t arg = 0;      // 4
};

inline constexpr std::size_t kRecordSize = 32;
static_assert(sizeof(Record) == kRecordSize, "trace record layout is pinned");
static_assert(std::is_trivially_copyable_v<Record>);
static_assert(alignof(Record) <= 8);

}  // namespace co::obs::trace

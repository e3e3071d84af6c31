// CoObserver — the single protocol-observation interface.
//
// CoCore reports every protocol milestone as one 32-byte trace record
// (src/obs/trace/record.h) through on_event():
//
//   at      the step's Input::at — the core reads no clock, but every
//           driver stamps its inputs from its own clock, so records carry
//           sim time in the simulator and monotonic time on the host;
//   actor   the reporting entity (the core's self);
//   origin, seq  the subject PDU (see each EventId for the exceptions:
//           f1/f2 name the first missing SEQ, ret the requested range);
//   event, arg   the EventId and its small payload (src/obs/trace/events.h);
//   stream  0 — the Tracer assigns it when the record enters a ring.
//
// Because a record names its entity and its time, one observer can serve
// any number of cores: CoCluster installs one for all n entities, the host
// one per entity runtime, and consumers (delivery bookkeeping, the
// happened-before oracle, the span tracker, the binary Tracer, the fuzz
// digest) all read the same record.
//
// Order: records arrive synchronously, in protocol order. At the same time
// kDeliver precedes the kAck that completes the PDU's span, and kAccept
// follows the (optional) kPark of the same PDU.
//
// The null object (null_observer()) is the core's default, so the core
// never branches on "is anyone listening".
#pragma once

#include "src/obs/trace/events.h"
#include "src/obs/trace/record.h"

namespace co::proto {

using obs::trace::EventId;
using obs::trace::Record;

class CoObserver {
 public:
  virtual ~CoObserver() = default;

  virtual void on_event(const Record& r) { (void)r; }
};

/// Shared no-op observer — the null object CoCore's observer defaults to,
/// so protocol code never null-checks before notifying.
inline CoObserver& null_observer() {
  static CoObserver obs;
  return obs;
}

}  // namespace co::proto

// TraceSink — where drained trace records go.
//
// Volo-style pluggable sink boundary (SNIPPETS.md): the Tracer owns the
// per-thread rings and the hot path; a sink only ever sees whole drained
// batches, on one thread at a time (the Tracer serializes drains under its
// registry mutex), so sinks need no locking of their own.
//
// Built-in sinks:
//   * the flight recorder is not a sink at all — it is the rings themselves
//     (overwrite-oldest policy) dumped on demand via Tracer::write_snapshot;
//   * FileStreamSink (src/obs/trace/file.h) streams batches to a binary
//     .cotrace file;
//   * NullTraceSink discards batches (bench reference for "tracer attached,
//     sink costs nothing").
//
// Tracing off is a null Tracer* at the call site, not a sink.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/obs/trace/record.h"

namespace co::obs::trace {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// One drained batch from writer stream `stream`, in append order.
  /// `dropped_so_far` is that stream's cumulative dropped-record counter at
  /// drain time (monotone per stream).
  virtual void on_records(std::uint16_t stream, const Record* records,
                          std::size_t count, std::uint64_t dropped_so_far) = 0;

  /// Durability point (end of run, violation dump). Default: nothing.
  virtual void flush() {}
};

/// Discards everything — the "sink overhead floor" reference.
class NullTraceSink final : public TraceSink {
 public:
  void on_records(std::uint16_t, const Record*, std::size_t,
                  std::uint64_t) override {}
};

inline NullTraceSink& null_trace_sink() {
  static NullTraceSink sink;
  return sink;
}

}  // namespace co::obs::trace

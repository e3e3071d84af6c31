// The metrics exporter: Prometheus text exposition (format 0.0.4) of a
// MetricsSnapshot, the repository's one snapshot format. The histogram
// ladder becomes cumulative `le` buckets. validate_prometheus is a
// self-contained checker used by tests and by co_inspect before it writes
// a dump, so the emitter cannot silently drift from the format.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "src/obs/metrics.h"

namespace co::obs {

/// Prometheus text exposition. `help_source` (optional) supplies # HELP
/// lines; # TYPE is always emitted. Families appear in snapshot order.
void write_prometheus(std::ostream& os, const MetricsSnapshot& snap,
                      const MetricsRegistry* help_source = nullptr);

/// Check `text` against the Prometheus text format: comment/sample line
/// grammar, metric/label name charsets, TYPE declarations preceding their
/// samples, and histogram series consistency (cumulative non-decreasing
/// buckets, strictly increasing `le`, terminal le="+Inf" matching _count,
/// _sum/_count present). Returns nullopt when valid, else a description of
/// the first problem.
std::optional<std::string> validate_prometheus(std::string_view text);

}  // namespace co::obs

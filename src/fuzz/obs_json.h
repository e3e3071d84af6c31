// MetricsSnapshot <-> fuzz::Json bridge.
//
// Counterexample artifacts embed the final metrics snapshot of the failing
// run, so a triager sees queue depths, stage latencies and loss counters
// next to the violation without re-running anything. Lives in fuzz/ (not
// obs/) because the Json model is a fuzz-artifact dependency.
#pragma once

#include "src/fuzz/json.h"
#include "src/obs/metrics.h"

namespace co::fuzz {

/// {"at_ns":..,"series":[{"name","labels":{..},"type", and "value" or
/// "count"/"sum"/"min"/"max"/"buckets":[[index,count],..]},..]}. Buckets
/// are sparse (no zero counts) over the shared Histogram ladder; index
/// Histogram::bounds().size() is the +Inf overflow bucket.
Json metrics_to_json(const obs::MetricsSnapshot& snap);

}  // namespace co::fuzz

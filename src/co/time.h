// Protocol time — plain integral instants and durations.
//
// The CO core is sans-io: it never reads a clock. Whoever drives it (the
// simulator's scheduler, a host shard's timer wheel, a fuzz replay) stamps
// every Input with the current Tick and receives timer deadlines back as
// absolute Deadlines. A Tick is a count of nanoseconds since an epoch the
// driver chooses — simulation start for SimDriver, Host::epoch() for a
// host shard — and the core only ever subtracts and compares them, so the
// epoch never matters.
//
// src/sim/time.h aliases these types (SimTime = time::Tick), which keeps
// the two time domains the same integer and conversions free; the layering
// rule is that src/co includes only this header, never src/sim.
#pragma once

#include <cstdint>

namespace co::time {

using Tick = std::int64_t;      // ns since the driver's epoch
using Duration = std::int64_t;  // ns
using Deadline = Tick;          // absolute instant a timer fires at

inline constexpr Duration kNanosecond = 1;
inline constexpr Duration kMicrosecond = 1000 * kNanosecond;
inline constexpr Duration kMillisecond = 1000 * kMicrosecond;
inline constexpr Duration kSecond = 1000 * kMillisecond;

/// Convert to fractional milliseconds for reporting (the paper's Fig. 8 axis
/// is in msec).
inline double to_ms(Duration d) { return static_cast<double>(d) / 1e6; }
inline double to_us(Duration d) { return static_cast<double>(d) / 1e3; }

namespace literals {
constexpr Duration operator""_ns(unsigned long long v) {
  return static_cast<Duration>(v);
}
constexpr Duration operator""_us(unsigned long long v) {
  return static_cast<Duration>(v) * kMicrosecond;
}
constexpr Duration operator""_ms(unsigned long long v) {
  return static_cast<Duration>(v) * kMillisecond;
}
constexpr Duration operator""_s(unsigned long long v) {
  return static_cast<Duration>(v) * kSecond;
}
}  // namespace literals

}  // namespace co::time

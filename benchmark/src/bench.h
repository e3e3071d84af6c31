// Shared pieces of the repository benchmark: the result record every
// workload fills in, a fixed-memory latency histogram, and the /proc and
// micro-benchmark probes the workloads read layers through.
//
// The benchmark drives only public library APIs (host::HostBuilder,
// fuzz::Scenario / fuzz::run_scenario, obs::trace::Tracer, proto::encode,
// transport::UdpSocket). See benchmark/NOTES.md for every metric's
// definition.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cobench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the operation tally plus every metric
/// of the requested kind (end-to-end with tracing off, per-layer with it
/// on).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

Result run_wire(const Options& options, bool closed_loop);
Result run_sim_fuzz(const Options& options);

/// Log-linear histogram of non-negative nanosecond values: exact below 256
/// ns, then 256 sub-buckets per power of two (< 0.4% relative width).
/// Fixed memory, so a run's RSS does not depend on how many samples it
/// took.
class LatencyHist {
 public:
  LatencyHist();
  void add(std::int64_t ns);
  void merge(const LatencyHist& other);
  /// q in [0, 1], interpolated within the bucket; 0 when empty.
  double quantile_ns(double q) const;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

/// num / den, or 0 when den is 0 (a window with nothing in it).
inline double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }
double median(std::vector<double> values);

// --- clocks and /proc probes (Linux) ----------------------------------------

/// CLOCK_MONOTONIC in ns (the clock std::chrono::steady_clock reads).
std::int64_t mono_ns();
/// CPU time of the calling thread, seconds.
double thread_cpu_s();
/// VmHWM of this process, MiB.
double peak_rss_mb();
/// Thread ids currently in /proc/self/task.
std::vector<int> task_ids();

/// Scheduler accounting summed over `tids` (/proc/self/task/<tid>/schedstat):
/// time on a CPU and time runnable but waiting for one.
struct SchedStat {
  std::uint64_t run_ns = 0;
  std::uint64_t wait_ns = 0;
};
SchedStat schedstat(const std::vector<int>& tids);

// --- isolated layer costs ----------------------------------------------------

/// proto::encode / proto::try_decode of one data PDU (n ack entries,
/// `payload` data bytes), ns per call, and the encoded size.
struct CodecCost {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  std::size_t encoded_bytes = 0;
};
CodecCost codec_cost(std::size_t n, std::size_t payload);

/// transport::UdpSocket::send_many / receive_many over a loopback socket
/// pair, in bursts of 32 datagrams of `bytes` each, ns per datagram
/// (median over bursts).
struct SocketCost {
  double send_ns = 0.0;
  double receive_ns = 0.0;
};
SocketCost socket_cost(std::size_t bytes);

}  // namespace cobench

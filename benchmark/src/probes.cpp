#include <dirent.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "benchmark/src/bench.h"
#include "src/co/pdu.h"
#include "src/co/wire.h"
#include "src/transport/udp.h"

namespace cobench {

// --- LatencyHist -------------------------------------------------------------

namespace {

constexpr int kSubBits = 8;
constexpr std::int64_t kExact = std::int64_t{1} << kSubBits;  // 256
constexpr int kMaxExp = 47;  // ~39 hours; larger values clamp

std::size_t bucket_of(std::int64_t ns) {
  if (ns < kExact) return static_cast<std::size_t>(std::max<std::int64_t>(ns, 0));
  int e = 63 - std::countl_zero(static_cast<std::uint64_t>(ns));
  if (e > kMaxExp) {
    e = kMaxExp;
    ns = (std::int64_t{1} << (kMaxExp + 1)) - 1;
  }
  const auto mant = static_cast<std::size_t>((ns >> (e - kSubBits)) & (kExact - 1));
  return static_cast<std::size_t>(kExact) +
         static_cast<std::size_t>(e - kSubBits) * static_cast<std::size_t>(kExact) +
         mant;
}

/// [lower bound, width) of bucket `i` in ns.
std::pair<double, double> bucket_span(std::size_t i) {
  if (i < static_cast<std::size_t>(kExact)) return {static_cast<double>(i), 1.0};
  const std::size_t j = i - static_cast<std::size_t>(kExact);
  const int shift = static_cast<int>(j / static_cast<std::size_t>(kExact));
  const double mant = static_cast<double>(j % static_cast<std::size_t>(kExact));
  const double width = static_cast<double>(std::uint64_t{1} << shift);
  return {(static_cast<double>(kExact) + mant) * width, width};
}

}  // namespace

LatencyHist::LatencyHist()
    : counts_(static_cast<std::size_t>(kExact) * (kMaxExp - kSubBits + 2), 0) {}

void LatencyHist::add(std::int64_t ns) {
  ++counts_[bucket_of(ns)];
  ++count_;
}

void LatencyHist::merge(const LatencyHist& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double LatencyHist::quantile_ns(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  double seen = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double c = static_cast<double>(counts_[i]);
    if (seen + c >= rank) {
      const auto [lo, width] = bucket_span(i);
      return lo + width * (rank - seen) / c;
    }
    seen += c;
  }
  const auto [lo, width] = bucket_span(counts_.size() - 1);
  return lo + width;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

// --- clocks and /proc --------------------------------------------------------

std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::vector<int> task_ids() {
  std::vector<int> ids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) throw std::runtime_error("cannot list /proc/self/task");
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    ids.push_back(std::atoi(e->d_name));
  }
  closedir(dir);
  std::sort(ids.begin(), ids.end());
  return ids;
}

SchedStat schedstat(const std::vector<int>& tids) {
  SchedStat total;
  for (const int tid : tids) {
    std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
    std::uint64_t run = 0;
    std::uint64_t wait = 0;
    if (!(in >> run >> wait))
      throw std::runtime_error("cannot read schedstat of thread " +
                               std::to_string(tid));
    total.run_ns += run;
    total.wait_ns += wait;
  }
  return total;
}

// --- isolated layer costs ----------------------------------------------------

CodecCost codec_cost(std::size_t n, std::size_t payload) {
  co::proto::CoPdu pdu;
  pdu.src = 3;
  pdu.seq = 100'000;
  for (std::size_t k = 0; k < n; ++k) pdu.ack.push_back(99'990 + k);
  pdu.buf = 1u << 16;
  for (std::size_t k = 0; k < payload; ++k)
    pdu.data.push_back(static_cast<std::uint8_t>(k * 7 + 1));
  const co::proto::Message msg{co::proto::PduRef(std::move(pdu))};
  const std::vector<std::uint8_t> bytes = co::proto::encode(msg);

  constexpr int kRounds = 5;
  constexpr int kIters = 40'000;
  std::vector<double> enc;
  std::vector<double> dec;
  std::size_t sink = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::int64_t t0 = mono_ns();
    for (int i = 0; i < kIters; ++i) sink += co::proto::encode(msg).size();
    std::int64_t t1 = mono_ns();
    enc.push_back(static_cast<double>(t1 - t0) / kIters);
    t0 = mono_ns();
    for (int i = 0; i < kIters; ++i)
      sink += co::proto::try_decode(bytes).has_value() ? 1 : 0;
    t1 = mono_ns();
    dec.push_back(static_cast<double>(t1 - t0) / kIters);
  }
  if (sink == 0) throw std::runtime_error("codec probe produced nothing");
  return CodecCost{median(enc), median(dec), bytes.size()};
}

SocketCost socket_cost(std::size_t bytes) {
  using co::transport::RecvBatch;
  using co::transport::TxDatagram;
  using co::transport::UdpSocket;
  constexpr std::size_t kBurst = 32;
  constexpr int kWarmup = 20;
  constexpr int kBursts = 400;

  UdpSocket tx;
  UdpSocket rx;
  tx.bind_loopback(0);
  rx.bind_loopback(0);
  const std::vector<std::uint8_t> payload(bytes, 0x5a);
  const std::vector<TxDatagram> burst(kBurst,
                                      TxDatagram{rx.local_endpoint(), payload});
  RecvBatch batch(kBurst, 2048);

  std::vector<double> send_ns;
  std::vector<double> recv_ns;
  for (int b = 0; b < kWarmup + kBursts; ++b) {
    const std::int64_t t0 = mono_ns();
    const auto sent = tx.send_many(burst).sent;
    const std::int64_t t1 = mono_ns();
    std::size_t got = 0;
    std::int64_t receiving = 0;
    for (int tries = 0; got < sent && tries < 100; ++tries) {
      const std::int64_t r0 = mono_ns();
      const std::size_t n = rx.receive_many(batch);
      receiving += mono_ns() - r0;
      got += n;
      if (n == 0) rx.wait_readable(10);
    }
    if (got != sent || sent == 0)
      throw std::runtime_error("loopback socket probe lost datagrams");
    if (b < kWarmup) continue;
    send_ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(sent));
    recv_ns.push_back(static_cast<double>(receiving) / static_cast<double>(got));
  }
  return SocketCost{median(send_ns), median(recv_ns)};
}

}  // namespace cobench

// wire_paced / wire_closed: one generator thread drives a loopback-UDP
// co::host::Host (8 entities on 2 shards) and checks every delivery.
//
// One measured host goes through: build + start, warm-up, load window,
// drain, and (per-layer runs only) a settle gap and an idle window, then
// stop. An end-to-end run measures kHosts such hosts one after another and
// reports the median over them. A traced run attaches an
// obs::trace::Tracer in streaming mode whose records stay in memory until
// the host stops and then become the per-stage latency ledger.
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "benchmark/src/bench.h"
#include "src/common/rng.h"
#include "src/host/host.h"
#include "src/obs/trace/tracer.h"

namespace cobench {
namespace {

using co::EntityId;
using co::host::Host;
using co::host::SubmitResult;
namespace trace = co::obs::trace;

constexpr std::size_t kN = 8;
constexpr std::size_t kShards = 2;
constexpr std::size_t kPayload = 64;
// Payload: due tick (8) | source (4) | per-source index (4) | submit id (4)
// | the source's delivered count from every entity (kN x 4) | seed filler.
constexpr std::size_t kHeader = 20;
static_assert(kHeader + 4 * kN <= kPayload);
constexpr double kPacedRate = 2000.0;       // submits/s, all sources
constexpr std::uint32_t kOutstanding = 4;  // closed loop, per source
constexpr std::size_t kOwnSlots = 8;        // ring of own-delivery ticks
static_assert(kOwnSlots >= kOutstanding);
// An end-to-end run splits --seconds over this many hosts, one after the
// other, and reports the median over them: the host-to-host spread on a
// shared machine is much wider than the spread within one host's window.
constexpr int kHosts = 6;
// Set-up: build + start + stop cycles, spread out so that one burst of
// interference from elsewhere on the machine cannot move all of them.
constexpr int kSetupCycles = 25;
constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kSetupGapNs = 20 * kMs;
constexpr std::int64_t kWarmupNs = 500 * kMs;
constexpr std::int64_t kSettleNs = 250 * kMs;
constexpr std::int64_t kIdleNs = 1000 * kMs;
constexpr std::int64_t kDrainLimitNs = 10'000 * kMs;
constexpr std::int64_t kClosedCheckNs = 20'000;
constexpr double kLayerSecondsMax = 2.0;

struct Stamp {
  std::int64_t due = 0;
  std::uint32_t src = 0;
  std::uint32_t index = 0;
  std::uint32_t id = 0;
  std::array<std::uint32_t, kN> deps{};
};

void pack(const Stamp& s, std::uint8_t* out) {
  std::memcpy(out, &s.due, 8);
  std::memcpy(out + 8, &s.src, 4);
  std::memcpy(out + 12, &s.index, 4);
  std::memcpy(out + 16, &s.id, 4);
  std::memcpy(out + kHeader, s.deps.data(), 4 * kN);
}

Stamp unpack(const std::uint8_t* in) {
  Stamp s;
  std::memcpy(&s.due, in, 8);
  std::memcpy(&s.src, in + 8, 4);
  std::memcpy(&s.index, in + 12, 4);
  std::memcpy(&s.id, in + 16, 4);
  std::memcpy(s.deps.data(), in + kHeader, 4 * kN);
  return s;
}

/// Per-entity delivery state. Written only by the shard thread that owns
/// the entity; the generator reads the atomics while the host runs, the
/// rest after stop() has joined the shards.
struct alignas(64) Receiver {
  std::array<std::atomic<std::uint32_t>, kN> delivered{};  // per source
  std::atomic<std::uint64_t> total{0};
  // Closed loop: tick at which this entity's own copy k came back, in slot
  // k % kOwnSlots (the generator reads slot k before copy k + kOwnSlots can
  // exist).
  std::array<std::atomic<std::int64_t>, kOwnSlots> own_at{};
  LatencyHist tap;                 // submits due in the load window
  std::vector<std::uint32_t> bad;  // submit ids that failed an order check
  // Traced: (submit id, callback tick) of every delivery, in order.
  std::vector<std::pair<std::uint32_t, std::int64_t>> callbacks;
};

/// Keeps every drained trace batch in memory until the run ends.
class MemorySink final : public trace::TraceSink {
 public:
  void on_records(std::uint16_t, const trace::Record* records,
                  std::size_t count, std::uint64_t) override {
    chunks.emplace_back(records, records + count);
  }
  std::vector<std::vector<trace::Record>> chunks;
};

struct Window {
  std::int64_t begin = 0;  // ticks since the host epoch
  std::int64_t end = 0;
  double seconds() const { return static_cast<double>(end - begin) / 1e9; }
  bool contains(std::int64_t t) const { return t >= begin && t < end; }
};

struct Ledger {
  double tap_mean_us = 0.0;
  double lag_mean_us = 0.0;  // due -> submit() returned: the generator's part
  double pickup_mean_us = 0.0;
  // queue, network, park, pack_wait, ack_wait, deliver
  std::array<double, 6> mean_us{};
  std::array<double, 6> p50_us{};
  std::uint64_t pairs = 0;
  std::uint64_t unmatched = 0;
  // Pairs with a single-clock stage below 0: a wrong join, not a timing.
  std::uint64_t inconsistent = 0;
};

/// Everything one measured host produced.
struct Measured {
  Window load;           // nominal: the submits due in it are the load set
  Window measured_load;  // as the generator passed it: counters, records
  Window idle;
  std::uint64_t load_deliveries = 0;
  SchedStat load_sched;  // shard threads, load window
  double generator_cpu_s = 0.0;
  double idle_shard_run_s = 0.0;
  LatencyHist tap;
  LatencyHist submit_ns;
  LatencyHist lag_ns;
  std::uint64_t deliveries = 0;
  std::uint64_t attempted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t undelivered = 0;
  std::uint64_t out_of_order = 0;
  co::host::WireStats wire;
  std::vector<co::proto::CoEntityStats::Snapshot> stats;
  std::uint64_t pool_bodies = 0;
  // Traced hosts only.
  Ledger ledger;
  std::uint64_t trace_records = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t load_timer_fires = 0;
  std::uint64_t idle_timer_fires = 0;
  std::uint64_t load_timer_arms = 0;
  std::uint64_t load_rx_bytes = 0;
  std::uint64_t idle_rx_datagrams = 0;

  bool correct() const { return undelivered == 0 && out_of_order == 0; }
  std::uint64_t failed() const { return rejected + undelivered + out_of_order; }
  double cpu_us_per_delivery() const {
    return load_deliveries ? static_cast<double>(load_sched.run_ns) / 1e3 /
                                 static_cast<double>(load_deliveries)
                           : 0.0;
  }
};

void sleep_until_mono(std::int64_t mono) {
  timespec ts{};
  ts.tv_sec = mono / 1'000'000'000;
  ts.tv_nsec = mono % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// One measured host: the state the deliver callback and the generator
/// share, and the generator itself.
class WireRun {
 public:
  WireRun(bool closed, std::uint64_t seed, bool traced) : closed_(closed), traced_(traced) {
    for (auto& r : rx_) r = std::make_unique<Receiver>();
    co::Rng rng(seed);
    for (std::size_t i = 0; i < kN; ++i) order_[i] = static_cast<EntityId>(i);
    for (std::size_t i = kN - 1; i > 0; --i)
      std::swap(order_[i], order_[rng.next_below(i + 1)]);
    for (auto& b : filler_) b = static_cast<std::uint8_t>(rng.next_u64());
  }

  /// co_load's protocol settings; HostBuilder's default spin and placement.
  std::unique_ptr<Host> build(trace::Tracer* tracer) {
    co::proto::CoConfig cfg;
    cfg.window = 64;
    cfg.defer_timeout = 1 * co::time::kMillisecond;
    cfg.retransmit_timeout = 25 * co::time::kMillisecond;
    co::host::HostBuilder b(kN);
    b.proto(cfg).shards(kShards).deliver(
        [this](EntityId at, EntityId src, const std::vector<std::uint8_t>& d) {
          on_deliver(at, src, d);
        });
    if (tracer != nullptr) b.tracer(tracer);
    for (std::size_t i = 0; i < kN; ++i) b.entity(static_cast<EntityId>(i));
    return b.build();
  }

  void attach(const Host& host) {
    epoch_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    host.epoch().time_since_epoch())
                    .count();
  }
  std::int64_t tick() const { return mono_ns() - epoch_ns_; }

  /// Warm-up, load window and drain (then, with `idle`, a settle gap and
  /// an idle window) on a started host whose shard threads are `shards`.
  void drive(Host& host, const std::vector<int>& shards, double seconds, bool idle,
             Measured& m) {
    // Wake the generator on time: the default 50 us timer slack would add
    // its own lateness to every open-loop tap.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const std::int64_t warm = tick();
    m.load.begin = warm + kWarmupNs;
    m.load.end = m.load.begin + static_cast<std::int64_t>(seconds * 1e9);
    load_begin_.store(m.load.begin, std::memory_order_relaxed);
    load_end_.store(m.load.end, std::memory_order_relaxed);

    // Counters at the start of the load window, read when the generator
    // first passes it.
    bool began = false;
    std::int64_t began_at = 0;
    std::uint64_t delivered_at_begin = 0;
    SchedStat sched_at_begin;
    double cpu_at_begin = 0.0;
    const auto begin_load = [&](std::int64_t now) {
      if (began || now < m.load.begin) return;
      began = true;
      began_at = tick();
      delivered_at_begin = total_delivered();
      sched_at_begin = schedstat(shards);
      cpu_at_begin = thread_cpu_s();
    };

    if (closed_) {
      for (std::int64_t now = tick(); now < m.load.end; now = tick()) {
        begin_load(now);
        for (const EntityId s : order_) {
          Receiver& own = *rx_[static_cast<std::size_t>(s)];
          const std::uint32_t back = own.delivered[static_cast<std::size_t>(s)]
                                         .load(std::memory_order_acquire);
          std::uint32_t& sent = accepted_[static_cast<std::size_t>(s)];
          while (sent - back < kOutstanding) {
            // The slot this submit fills opened when own copy
            // sent - kOutstanding came back: that is when it was due.
            const std::int64_t freed =
                sent < kOutstanding
                    ? warm
                    : own.own_at[(sent - kOutstanding) % kOwnSlots].load(
                          std::memory_order_relaxed);
            if (!submit(host, s, freed, m)) break;
          }
        }
        sleep_until_mono(mono_ns() + kClosedCheckNs);
      }
    } else {
      const double period_ns = 1e9 / kPacedRate;
      for (std::uint64_t k = 0;; ++k) {
        const std::int64_t due =
            warm + static_cast<std::int64_t>(static_cast<double>(k) * period_ns);
        if (due >= m.load.end) break;
        sleep_until_mono(epoch_ns_ + due);
        begin_load(due);
        submit(host, order_[k % kN], due, m);
      }
      sleep_until_mono(epoch_ns_ + m.load.end);
    }
    begin_load(m.load.end);
    const SchedStat sched_at_end = schedstat(shards);
    m.load_deliveries = total_delivered() - delivered_at_begin;
    m.generator_cpu_s = thread_cpu_s() - cpu_at_begin;
    m.load_sched = SchedStat{sched_at_end.run_ns - sched_at_begin.run_ns,
                             sched_at_end.wait_ns - sched_at_begin.wait_ns};
    m.measured_load = Window{began_at, tick()};

    // Drain: every accepted submit must reach every entity.
    std::uint64_t accepted = 0;
    for (const std::uint32_t a : accepted_) accepted += a;
    const std::int64_t deadline = tick() + kDrainLimitNs;
    while (!all_delivered(accepted) && tick() < deadline)
      sleep_until_mono(mono_ns() + kMs);
    if (!idle) return;

    sleep_until_mono(mono_ns() + kSettleNs);
    m.idle.begin = tick();
    const SchedStat idle_begin = schedstat(shards);
    sleep_until_mono(epoch_ns_ + m.idle.begin + kIdleNs);
    m.idle.end = tick();
    m.idle_shard_run_s =
        static_cast<double>(schedstat(shards).run_ns - idle_begin.run_ns) / 1e9;
  }

  /// After the shards are joined: correctness tally and per-entity taps.
  void collect(Measured& m) const {
    m.attempted = m.rejected;
    for (std::size_t s = 0; s < kN; ++s) {
      m.attempted += accepted_[s];
      std::uint32_t everywhere = accepted_[s];
      for (const auto& r : rx_)
        everywhere = std::min(everywhere, r->delivered[s].load());
      m.undelivered += accepted_[s] - everywhere;
    }
    std::vector<std::uint32_t> bad;
    for (const auto& r : rx_) {
      m.tap.merge(r->tap);
      m.deliveries += r->total.load();
      bad.insert(bad.end(), r->bad.begin(), r->bad.end());
    }
    std::sort(bad.begin(), bad.end());
    m.out_of_order = static_cast<std::uint64_t>(
        std::unique(bad.begin(), bad.end()) - bad.begin());
  }

  Ledger ledger(const MemorySink& sink, const Window& load) const;

 private:
  bool submit(Host& host, EntityId s, std::int64_t due, Measured& m) {
    const auto si = static_cast<std::size_t>(s);
    const std::int64_t call = tick();
    Stamp st;
    st.due = closed_ ? call : due;
    st.src = static_cast<std::uint32_t>(s);
    st.index = accepted_[si];
    st.id = next_id_;
    for (std::size_t j = 0; j < kN; ++j)
      st.deps[j] = rx_[si]->delivered[j].load(std::memory_order_relaxed);
    std::vector<std::uint8_t> data(kPayload);
    std::memcpy(data.data() + kHeader + 4 * kN, filler_.data(), filler_.size());
    pack(st, data.data());

    const std::int64_t t0 = mono_ns();
    const SubmitResult res = host.submit(s, std::move(data));
    const std::int64_t t1 = mono_ns();
    if (m.load.contains(call)) {
      m.submit_ns.add(t1 - t0);
      m.lag_ns.add(call - due);
    }
    if (res != SubmitResult::kAccepted) {
      ++m.rejected;
      return false;
    }
    if (traced_) {  // what the ledger joins the trace records against
      src_of_.push_back(st.src);
      index_of_.push_back(st.index);
      due_of_.push_back(st.due);
      returned_at_.push_back(t1 - epoch_ns_);
      ids_of_source_[si].push_back(st.id);
    }
    ++next_id_;
    ++accepted_[si];
    return true;
  }

  void on_deliver(EntityId at, EntityId src, const std::vector<std::uint8_t>& d) {
    const std::int64_t now = tick();
    Receiver& r = *rx_[static_cast<std::size_t>(at)];
    if (d.size() != kPayload || src < 0 || static_cast<std::size_t>(src) >= kN) {
      r.bad.push_back(~std::uint32_t{0});
      return;
    }
    const Stamp st = unpack(d.data());
    const auto si = static_cast<std::size_t>(src);
    // Per-source FIFO, and causal order: the submitter had delivered
    // deps[j] PDUs from every source j before submitting, so this entity
    // must have delivered at least as many.
    bool ok = st.src == si && st.index == r.delivered[si].load(std::memory_order_relaxed);
    for (std::size_t j = 0; j < kN; ++j)
      ok = ok && r.delivered[j].load(std::memory_order_relaxed) >= st.deps[j];
    if (!ok) r.bad.push_back(st.id);
    if (st.due >= load_begin_.load(std::memory_order_relaxed) &&
        st.due < load_end_.load(std::memory_order_relaxed))
      r.tap.add(now - st.due);
    if (traced_) r.callbacks.emplace_back(st.id, now);
    if (at == src) r.own_at[st.index % kOwnSlots].store(now, std::memory_order_relaxed);
    r.delivered[si].store(st.index + 1, std::memory_order_release);
    r.total.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t total_delivered() const {
    std::uint64_t total = 0;
    for (const auto& r : rx_) total += r->total.load(std::memory_order_relaxed);
    return total;
  }

  bool all_delivered(std::uint64_t accepted) const {
    for (const auto& r : rx_)
      if (r->total.load(std::memory_order_relaxed) < accepted) return false;
    return true;
  }

  const bool closed_;
  const bool traced_;
  std::int64_t epoch_ns_ = 0;
  std::array<EntityId, kN> order_{};
  std::array<std::uint8_t, kPayload - kHeader - 4 * kN> filler_{};
  std::array<std::unique_ptr<Receiver>, kN> rx_;
  std::atomic<std::int64_t> load_begin_{0};
  std::atomic<std::int64_t> load_end_{0};
  // Generator-owned.
  std::array<std::uint32_t, kN> accepted_{};
  std::uint32_t next_id_ = 0;
  std::vector<std::uint32_t> src_of_;
  std::vector<std::uint32_t> index_of_;
  std::vector<std::int64_t> due_of_;
  std::vector<std::int64_t> returned_at_;
  std::array<std::vector<std::uint32_t>, kN> ids_of_source_;
};

/// Joins the trace records to the benchmark's own submit and delivery
/// times, per (receiver, data PDU) submitted in the load window:
///   pickup    submit returned     -> `submit` record (ring wait + wakeup)
///   queue     `submit` record     -> `send` record (app queue, flow control)
///   network   `send`              -> first `park`/`accept` at the receiver
///   park      `park`              -> `accept` (0 when not parked)
///   pack_wait `accept`            -> `pack`
///   ack_wait  `pack`              -> `ack`
///   deliver   `ack`               -> the application's deliver callback
/// The parts telescope: their sum is callback - submit return for every
/// pair, so it cannot catch a wrong join. A stage that reads negative can.
/// Each shard stamps its records with one clock reading per loop pass, and
/// that reading only grows, so queue, park, pack_wait and ack_wait (both
/// ends on one entity) and deliver (ends at the callback's own clock
/// reading, after the ack) are never negative on a correct join; a pair
/// where one is counts as inconsistent. pickup and network are exempt:
/// their ends are stamped on different threads, and a preempted thread
/// makes them read negative by as long as it was off the CPU.
/// A submit record carries no PDU key: the k-th `submit` and the k-th data
/// `send` of a source are its k-th accepted submit (the app queue is FIFO).
Ledger WireRun::ledger(const MemorySink& sink, const Window& load) const {
  using trace::EventId;
  std::array<std::vector<std::int64_t>, kN> submit_rec;
  std::array<std::vector<std::int64_t>, kN> send_rec;
  std::array<std::vector<std::uint64_t>, kN> send_seq;
  for (const auto& chunk : sink.chunks) {
    for (const trace::Record& r : chunk) {
      if (r.actor < 0 || static_cast<std::size_t>(r.actor) >= kN) continue;
      const auto a = static_cast<std::size_t>(r.actor);
      const auto ev = static_cast<EventId>(r.event);
      if (ev == EventId::kSubmit) {
        submit_rec[a].push_back(r.at);
      } else if (ev == EventId::kSend && r.arg == 1) {
        send_rec[a].push_back(r.at);
        send_seq[a].push_back(r.seq);
      }
    }
  }

  struct Marks {
    std::int64_t park = -1, accept = -1, pack = -1, ack = -1;
  };
  const std::size_t ids = src_of_.size();
  std::vector<Marks> marks(kN * ids);
  for (const auto& chunk : sink.chunks) {
    for (const trace::Record& r : chunk) {
      const auto ev = static_cast<EventId>(r.event);
      if (ev != EventId::kPark && ev != EventId::kAccept &&
          ev != EventId::kPack && ev != EventId::kAck)
        continue;
      if (r.actor < 0 || static_cast<std::size_t>(r.actor) >= kN ||
          r.origin < 0 || static_cast<std::size_t>(r.origin) >= kN)
        continue;
      const auto s = static_cast<std::size_t>(r.origin);
      const auto& seqs = send_seq[s];
      const auto it = std::lower_bound(seqs.begin(), seqs.end(), r.seq);
      if (it == seqs.end() || *it != r.seq) continue;  // ack-only PDU
      const auto k = static_cast<std::size_t>(it - seqs.begin());
      if (k >= ids_of_source_[s].size()) continue;
      Marks& mk = marks[static_cast<std::size_t>(r.actor) * ids + ids_of_source_[s][k]];
      std::int64_t* field = ev == EventId::kPark     ? &mk.park
                            : ev == EventId::kAccept ? &mk.accept
                            : ev == EventId::kPack   ? &mk.pack
                                                     : &mk.ack;
      if (*field < 0) *field = r.at;
    }
  }

  // Callback tick by submit id, per receiver.
  std::vector<std::int64_t> cb_at(kN * ids, -1);
  for (std::size_t r = 0; r < kN; ++r)
    for (const auto& [id, at] : rx_[r]->callbacks)
      if (id < ids) cb_at[r * ids + id] = at;

  Ledger out;
  std::array<std::vector<double>, 9> v;  // pickup, the 6 stages, tap, lag (us)
  for (std::size_t id = 0; id < ids; ++id) {
    if (!load.contains(due_of_[id])) continue;
    const std::size_t s = src_of_[id];
    const std::size_t k = index_of_[id];
    if (k >= submit_rec[s].size() || k >= send_rec[s].size()) {
      out.unmatched += kN;
      continue;
    }
    const std::int64_t sub = submit_rec[s][k];
    const std::int64_t snd = send_rec[s][k];
    for (std::size_t r = 0; r < kN; ++r) {
      const Marks& mk = marks[r * ids + id];
      const std::int64_t cb = cb_at[r * ids + id];
      if (mk.accept < 0 || mk.pack < 0 || mk.ack < 0 || cb < 0) {
        ++out.unmatched;
        continue;
      }
      const std::int64_t first = mk.park >= 0 ? mk.park : mk.accept;
      const std::int64_t parts[9] = {sub - returned_at_[id], snd - sub,
                                     first - snd,            mk.accept - first,
                                     mk.pack - mk.accept,    mk.ack - mk.pack,
                                     cb - mk.ack,            cb - due_of_[id],
                                     returned_at_[id] - due_of_[id]};
      for (std::size_t i = 0; i < 9; ++i)
        v[i].push_back(static_cast<double>(parts[i]) / 1e3);
      ++out.pairs;
      if (parts[1] < 0 || parts[3] < 0 || parts[4] < 0 || parts[5] < 0 || parts[6] < 0)
        ++out.inconsistent;
    }
  }
  const auto mean = [](const std::vector<double>& x) {
    double sum = 0.0;
    for (const double d : x) sum += d;
    return x.empty() ? 0.0 : sum / static_cast<double>(x.size());
  };
  out.pickup_mean_us = mean(v[0]);
  for (std::size_t i = 0; i < 6; ++i) {
    out.mean_us[i] = mean(v[i + 1]);
    out.p50_us[i] = median(v[i + 1]);
  }
  out.tap_mean_us = mean(v[7]);
  out.lag_mean_us = mean(v[8]);
  return out;
}

/// Counts the driver and transport records that fall in the load and idle
/// windows.
void count_records(const MemorySink& sink, Measured& m) {
  using trace::EventId;
  for (const auto& chunk : sink.chunks) {
    m.trace_records += chunk.size();
    for (const trace::Record& r : chunk) {
      const auto ev = static_cast<EventId>(r.event);
      const bool load = m.measured_load.contains(r.at);
      const bool idle = m.idle.contains(r.at);
      if (ev == EventId::kTimerFire) {
        m.load_timer_fires += load;
        m.idle_timer_fires += idle;
      } else if (ev == EventId::kTimerArm) {
        m.load_timer_arms += load;
      } else if (ev == EventId::kWireRx) {
        if (load) m.load_rx_bytes += r.arg;
        m.idle_rx_datagrams += idle;
      }
    }
  }
}

/// Build + start time of a host of the workload's shape, kSetupCycles
/// times (each host stopped again).
std::vector<double> setup_times(bool closed, std::uint64_t seed) {
  WireRun run(closed, seed, false);
  std::vector<double> out;
  for (int c = 0; c < kSetupCycles; ++c) {
    if (c != 0) sleep_until_mono(mono_ns() + kSetupGapNs);
    const std::int64_t t0 = mono_ns();
    const std::unique_ptr<Host> host = run.build(nullptr);
    host->start();
    out.push_back(static_cast<double>(mono_ns() - t0) / 1e9);
    host->stop();
  }
  return out;
}

/// Builds, starts and measures one host.
Measured measure(bool closed, std::uint64_t seed, double seconds, bool traced, bool idle) {
  WireRun run(closed, seed, traced);
  MemorySink sink;
  trace::TracerConfig tcfg;
  tcfg.ring_capacity = std::size_t{1} << 16;
  tcfg.overwrite_oldest = false;
  trace::Tracer tracer(tcfg, &sink);

  // The shard threads are the ones start() creates.
  const std::vector<int> before = task_ids();
  const std::unique_ptr<Host> host = run.build(traced ? &tracer : nullptr);
  host->start();
  const std::vector<int> after = task_ids();
  std::vector<int> shards;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(shards));
  if (shards.size() != kShards)
    throw std::runtime_error("expected one new thread per shard at start()");
  run.attach(*host);

  Measured m;
  run.drive(*host, shards, seconds, idle, m);
  host->stop();
  run.collect(m);
  m.wire = host->total_wire_stats();
  for (std::size_t i = 0; i < kN; ++i)
    m.stats.push_back(host->protocol_stats(static_cast<EntityId>(i)));
  for (std::size_t s = 0; s < host->shard_count(); ++s)
    for (std::size_t e = 0; e < host->shard(s).entity_count(); ++e)
      m.pool_bodies += host->shard(s).entity(e).core().pool().bodies_allocated();
  if (traced) {
    tracer.flush();
    m.trace_dropped = tracer.dropped();
    count_records(sink, m);
    m.ledger = run.ledger(sink, m.load);
  }
  return m;
}

template <typename F>
double median_over(const std::vector<Measured>& hosts, F per_host) {
  std::vector<double> v;
  for (const Measured& m : hosts) v.push_back(per_host(m));
  return median(v);
}

void add_per_layer(const Measured& base, const Measured& traced, Result& out) {
  const double load_s = base.measured_load.seconds();
  out.add("tap_p99_ms", base.tap.quantile_ns(0.99) / 1e6, "ms");
  out.add("host.submit_ns", base.submit_ns.quantile_ns(0.5), "ns");
  out.add("host.submit_rejected", static_cast<double>(base.rejected), "count");
  out.add("host.shard_cpu_cores",
          ratio(static_cast<double>(base.load_sched.run_ns) / 1e9, load_s), "cores");
  out.add("host.shard_runq_wait_ms_per_s",
          ratio(static_cast<double>(base.load_sched.wait_ns) / 1e6, load_s), "ms/s");
  out.add("host.generator_cpu_cores", ratio(base.generator_cpu_s, load_s), "cores");
  out.add("host.generator_lag_p99_ms", base.lag_ns.quantile_ns(0.99) / 1e6, "ms");
  out.add("host.idle_shard_cpu_cores", ratio(base.idle_shard_run_s, base.idle.seconds()),
          "cores");
  out.add("host.idle_datagrams_per_s",
          ratio(static_cast<double>(traced.idle_rx_datagrams), traced.idle.seconds()), "1/s");

  const auto per_delivery = [&traced](std::uint64_t v) {
    return ratio(static_cast<double>(v), static_cast<double>(traced.load_deliveries));
  };
  out.add("driver.timer_fires_per_s",
          ratio(static_cast<double>(traced.load_timer_fires), traced.measured_load.seconds()),
          "1/s");
  out.add("driver.idle_timer_fires_per_s",
          ratio(static_cast<double>(traced.idle_timer_fires), traced.idle.seconds()), "1/s");
  out.add("driver.timer_arms_per_delivery", per_delivery(traced.load_timer_arms), "count");

  out.add("transport.datagrams_sent", static_cast<double>(base.wire.datagrams_sent), "count");
  out.add("transport.datagrams_received", static_cast<double>(base.wire.datagrams_received),
          "count");
  out.add("transport.send_buffer_drops", static_cast<double>(base.wire.send_buffer_drops),
          "count");
  out.add("transport.decode_errors", static_cast<double>(base.wire.decode_errors), "count");
  out.add("transport.wire_bytes_per_delivery", per_delivery(traced.load_rx_bytes), "B");

  co::proto::CoEntityStats::Snapshot sum;
  for (const auto& s : base.stats) {
    sum.processing_ns += s.processing_ns;
    sum.messages_processed += s.messages_processed;
    sum.data_pdus_sent += s.data_pdus_sent;
    sum.ctrl_pdus_sent += s.ctrl_pdus_sent;
    sum.ret_pdus_sent += s.ret_pdus_sent;
    sum.heartbeats_sent += s.heartbeats_sent;
    sum.retransmissions_sent += s.retransmissions_sent;
    sum.flow_blocked += s.flow_blocked;
    sum.max_sl = std::max(sum.max_sl, s.max_sl);
    sum.max_prl = std::max(sum.max_prl, s.max_prl);
    sum.max_parked = std::max(sum.max_parked, s.max_parked);
  }
  out.add("co.step_us_per_message",
          ratio(static_cast<double>(sum.processing_ns) / 1e3,
                static_cast<double>(sum.messages_processed)),
          "us");
  out.add("co.pdus_sent_per_delivery",
          ratio(static_cast<double>(sum.data_pdus_sent + sum.ctrl_pdus_sent +
                                    sum.ret_pdus_sent + sum.retransmissions_sent),
                static_cast<double>(base.deliveries)),
          "count");
  out.add("co.ctrl_per_data_pdu",
          ratio(static_cast<double>(sum.ctrl_pdus_sent), static_cast<double>(sum.data_pdus_sent)),
          "count");
  out.add("co.heartbeats_sent", static_cast<double>(sum.heartbeats_sent), "count");
  out.add("co.retransmissions_sent", static_cast<double>(sum.retransmissions_sent), "count");
  out.add("co.flow_blocked", static_cast<double>(sum.flow_blocked), "count");
  out.add("co.max_sl", static_cast<double>(sum.max_sl), "count");
  out.add("co.max_prl", static_cast<double>(sum.max_prl), "count");
  out.add("co.max_parked", static_cast<double>(sum.max_parked), "count");
  out.add("co.pool_bodies_allocated", static_cast<double>(base.pool_bodies), "count");

  const Ledger& l = traced.ledger;
  out.add("host.generator_lag_us", l.lag_mean_us, "us");
  out.add("host.pickup_us", l.pickup_mean_us, "us");
  static const char* kStages[6] = {"queue", "network", "park", "pack_wait", "ack_wait",
                                   "deliver"};
  for (std::size_t i = 0; i < 6; ++i) {
    out.add(std::string("co.stage.") + kStages[i] + "_us", l.mean_us[i], "us");
    out.add(std::string("co.stage.") + kStages[i] + "_p50_us", l.p50_us[i], "us");
  }
  out.add("obs.ledger_tap_mean_us", l.tap_mean_us, "us");
  out.add("obs.ledger_inconsistent", static_cast<double>(l.inconsistent), "count");
  out.add("obs.ledger_unmatched", static_cast<double>(l.unmatched), "count");
  out.add("obs.trace_records_per_delivery",
          ratio(static_cast<double>(traced.trace_records), static_cast<double>(traced.deliveries)),
          "count");
  out.add("obs.trace_dropped", static_cast<double>(traced.trace_dropped), "count");
  out.add("obs.trace_overhead_pct",
          100.0 * ratio(traced.cpu_us_per_delivery() - base.cpu_us_per_delivery(),
                        base.cpu_us_per_delivery()),
          "%");
}

}  // namespace

Result run_wire(const Options& options, bool closed_loop) {
  Result out;
  if (!options.trace) {
    const std::vector<double> setup = setup_times(closed_loop, options.seed);
    std::vector<Measured> hosts;
    for (int h = 0; h < kHosts; ++h)
      hosts.push_back(measure(closed_loop, options.seed, options.seconds / kHosts, false, false));

    out.add("setup_s", median(setup), "s");
    out.add("tap_p50_ms",
            median_over(hosts, [](const Measured& m) { return m.tap.quantile_ns(0.50) / 1e6; }),
            "ms");
    out.add("tap_p90_ms",
            median_over(hosts, [](const Measured& m) { return m.tap.quantile_ns(0.90) / 1e6; }),
            "ms");
    out.add("delivered_per_s", median_over(hosts, [](const Measured& m) {
              return ratio(static_cast<double>(m.load_deliveries), m.measured_load.seconds());
            }),
            "1/s");
    out.add("shard_cpu_us_per_delivery",
            median_over(hosts, [](const Measured& m) { return m.cpu_us_per_delivery(); }), "us");
    out.add("datagrams_per_delivery", median_over(hosts, [](const Measured& m) {
              return ratio(static_cast<double>(m.wire.datagrams_sent),
                           static_cast<double>(m.deliveries));
            }),
            "count");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    for (const Measured& m : hosts) {
      out.correct = out.correct && m.correct();
      out.attempted += m.attempted;
      out.failed += m.failed();
    }
    return out;
  }

  // Per-layer: an untraced and a traced host of the same (shorter) load
  // window, so the trace's own cost shows as their difference.
  const double seconds = std::min(options.seconds / kHosts, kLayerSecondsMax);
  const Measured base = measure(closed_loop, options.seed, seconds, false, true);
  const Measured traced = measure(closed_loop, options.seed, seconds, true, true);
  add_per_layer(base, traced, out);

  // Correct outputs, and a complete, consistent trace: every (receiver,
  // PDU) of the load window found in the records with no stage out of
  // order, and no record dropped.
  const Ledger& l = traced.ledger;
  out.correct = base.correct() && traced.correct() && l.unmatched == 0 && l.pairs > 0 &&
                l.inconsistent == 0 && traced.trace_dropped == 0;
  out.attempted = base.attempted + traced.attempted;
  out.failed = base.failed() + traced.failed();
  return out;
}

}  // namespace cobench

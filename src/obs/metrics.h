// Metrics registry for protocol introspection.
//
// Three instrument kinds, all labeled (typically per entity):
//   * Counter   — monotonically increasing count, owned by the instrumented
//                 component (or sampled through a callback from an existing
//                 stats struct, so hot paths are not double-instrumented);
//   * Gauge     — point-in-time level (queue depth, buffered PDUs), usually
//                 a callback sampled only when a snapshot is taken;
//   * Histogram — log2-bucketed distribution (stage latencies in ms).
//
// Cost discipline: nothing in the protocol hot path touches the registry
// unless an observability bundle is attached, and the attached cost is one
// branch + (for histograms) one bucket increment. Callback instruments are
// only evaluated inside snapshot(), which the caller controls — taking a
// snapshot schedules no events and emits no trace events, so attaching
// metrics never perturbs a deterministic run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/co/time.h"

namespace co::obs {

/// Label key/value pairs; canonicalized (sorted by key) at registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

std::string_view metric_type_name(MetricType t);

class Counter {
 public:
  void inc(std::uint64_t d = 1) { v_ += d; }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

class Gauge {
 public:
  void set(double v) { v_ = v; }
  void add(double d) { v_ += d; }
  double value() const { return v_; }

 private:
  double v_ = 0.0;
};

/// Log2-bucketed histogram over non-negative doubles. The bucket ladder is
/// shared by every histogram (Prometheus `le` boundaries): 1e-3 * 2^i for
/// i in [0, 40), plus +Inf — for millisecond-valued latencies that spans
/// one microsecond up to ~6 simulated days.
class Histogram {
 public:
  Histogram();

  void observe(double x);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Per-bucket (non-cumulative) counts; size bounds().size() + 1, the last
  /// entry being the +Inf overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  /// q in [0,1]; interpolated within the bucket, clamped to observed
  /// min/max. Returns 0 when empty.
  double quantile(double q) const;

  /// The shared finite bucket boundary ladder (upper bounds, `le`).
  static const std::vector<double>& bounds();

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Quantile over an externally merged bucket-count vector (same shared
/// ladder). Pass the observed min/max — the in-bucket interpolation is
/// clamped to [value_min, value_max] (so q=0 -> min, q=1 -> max and an
/// all-equal distribution reports that value exactly).
double histogram_quantile(const std::vector<std::uint64_t>& bucket_counts,
                          double q, double value_min = 0.0,
                          double value_max = 0.0);

/// One series as captured by MetricsRegistry::snapshot().
struct SnapshotSeries {
  std::string name;
  Labels labels;
  MetricType type = MetricType::kGauge;
  double value = 0.0;  // counter / gauge
  // Histogram payload.
  std::uint64_t count = 0;
  double sum = 0.0;
  double hist_min = 0.0;
  double hist_max = 0.0;
  std::vector<std::uint64_t> buckets;  // non-cumulative, shared ladder

  double mean() const {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
  double quantile(double q) const {
    return histogram_quantile(buckets, q, hist_min, hist_max);
  }
};

/// Point-in-time capture of every registered series (callback instruments
/// are evaluated here). Copyable, so results/artifacts can embed it.
struct MetricsSnapshot {
  time::Tick at = 0;
  std::vector<SnapshotSeries> series;

  const SnapshotSeries* find(std::string_view name,
                             const Labels& labels = {}) const;
  /// Counter/gauge value, or `fallback` when the series is absent.
  double value_or(std::string_view name, const Labels& labels = {},
                  double fallback = 0.0) const;
};

/// Owns metric families in registration order (deterministic exposition).
/// Not thread-safe — the simulator is single-threaded by design.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name, Labels labels = {},
                   const std::string& help = "");
  Gauge* gauge(const std::string& name, Labels labels = {},
               const std::string& help = "");
  Histogram* histogram(const std::string& name, Labels labels = {},
                       const std::string& help = "");

  /// Callback instruments: sampled only at snapshot() time, so existing
  /// stats structs can be exposed with zero hot-path cost. A counter
  /// callback must be monotone in successive snapshots.
  void counter_fn(const std::string& name, Labels labels,
                  std::function<double()> fn, const std::string& help = "");
  void gauge_fn(const std::string& name, Labels labels,
                std::function<double()> fn, const std::string& help = "");

  MetricsSnapshot snapshot(time::Tick at) const;

  std::size_t family_count() const { return families_.size(); }
  std::size_t series_count() const;
  /// Help text by family name (empty when unset/unknown); exposition uses it.
  std::string_view help(std::string_view name) const;

 private:
  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> sample;  // callback counter/gauge
  };
  struct Family {
    std::string name;
    std::string help;
    MetricType type;
    std::vector<Series> series;
  };

  Family& family(const std::string& name, MetricType type,
                 const std::string& help);
  Series& add_series(const std::string& name, MetricType type, Labels labels,
                     const std::string& help);

  std::vector<Family> families_;
};

}  // namespace co::obs

// Low-overhead metrics primitives for always-on observability
// (docs/TELEMETRY.md). Dependency-free by design: the registry is the
// only part that allocates or locks, and it does so only at
// registration time — the returned Counter/Gauge/Histogram references
// are stable for the registry's lifetime, so hot paths touch nothing
// but a relaxed atomic.
//
//   * Counter   — monotonic uint64, relaxed fetch_add.
//   * Gauge     — double, relaxed store (Set) / CAS loop (Add).
//   * Histogram — fixed log2 buckets (bucket i holds values of
//                 bit-width i, upper bound 2^i − 1), lock-free Record;
//                 made for microsecond latencies and byte sizes where
//                 power-of-two resolution is plenty.
//
// Exposition (Prometheus text + JSON) lives in telemetry/exposition.h;
// each metric is read snapshot-consistently there: a counter or gauge
// is one atomic load, and a histogram's count is derived from the same
// bucket loads that produce its cumulative series, so `_count` always
// equals the `+Inf` bucket even while writers race.

#ifndef LTC_TELEMETRY_METRICS_H_
#define LTC_TELEMETRY_METRICS_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ltc {
namespace telemetry {

/// Label name/value pairs attached to one series of a family, e.g.
/// {{"shard", "3"}}. Order is significant for identity and output.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing counter. Thread-safe; Increment/Add are a
/// single relaxed fetch_add.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

  /// Publishes a counter its component owns (the plain uint64 fields of
  /// LtcMetricsSink, IngestPipeline's per-lane atomics, ...): overwrites
  /// the value with the latest sample. Only valid when the source itself
  /// never decreases. Every component Collect() publishes this way.
  void SetFromSample(uint64_t v) { value_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-value gauge. Thread-safe; Set is a relaxed store.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket log2 histogram: Record(v) increments the bucket whose
/// index is bit_width(v), so bucket i (i in [0, 64)) covers values in
/// [2^(i−1), 2^i − 1] with upper bound le = 2^i − 1; the final bucket
/// (index 64) is the +Inf overflow for values >= 2^63. Record is one
/// relaxed fetch_add per sample plus one for the running sum.
class Histogram {
 public:
  /// 0, 1, 3, 7, ..., 2^63−1, +Inf.
  static constexpr size_t kNumBuckets = 65;

  static size_t BucketIndex(uint64_t value) {
    return static_cast<size_t>(std::bit_width(value));
  }

  /// Inclusive upper bound of bucket i; the last bucket has no finite
  /// bound (exposition renders it as +Inf).
  static uint64_t BucketUpperBound(size_t i) {
    return i >= 64 ? ~uint64_t{0} : (uint64_t{1} << i) - 1;
  }

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Publishes a histogram its component owns: overwrites every bucket
  /// and the sum with `source`'s current values (the histogram analogue
  /// of Counter::SetFromSample). Safe while `source` is being recorded
  /// into; the copy is then a mix of two nearby moments, each bucket
  /// monotone.
  void SetFromSample(const Histogram& source) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      buckets_[i].store(source.BucketCount(i), std::memory_order_relaxed);
    }
    sum_.store(source.Sum(), std::memory_order_relaxed);
  }

  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Total samples, derived from the buckets so it is always consistent
  /// with the cumulative series an exporter builds from the same loads.
  uint64_t Count() const {
    uint64_t total = 0;
    for (const auto& bucket : buckets_) {
      total += bucket.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Sum of recorded values (wraps at 2^64; callers record bounded
  /// quantities like microseconds or bytes, where wrap is theoretical).
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Names and owns metric families. Registration (CounterOf / GaugeOf /
/// HistogramOf) is find-or-create under a mutex and returns a reference
/// that stays valid for the registry's lifetime — register once, keep
/// the reference, update lock-free. Re-registering the same name with a
/// different kind throws std::logic_error; malformed metric or label
/// names throw std::invalid_argument (Prometheus charset:
/// [a-zA-Z_:][a-zA-Z0-9_:]* for metrics, [a-zA-Z_][a-zA-Z0-9_]* for
/// labels).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& CounterOf(const std::string& name, const std::string& help,
                     Labels labels = {});
  Gauge& GaugeOf(const std::string& name, const std::string& help,
                 Labels labels = {});
  Histogram& HistogramOf(const std::string& name, const std::string& help,
                         Labels labels = {});

  /// One labeled series of a family. Exactly one of the three metric
  /// pointers is non-null, matching the family's kind.
  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::vector<std::unique_ptr<Series>> series;  // registration order
  };

  /// Iterates families (registration order) under the registration
  /// lock. `fn` must not call back into the registry.
  template <typename Fn>
  void ForEachFamily(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& family : families_) fn(*family);
  }

  size_t num_families() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return families_.size();
  }

 private:
  Family& FamilyOf(const std::string& name, const std::string& help,
                   MetricKind kind);
  Series& SeriesOf(Family& family, Labels labels);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Family>> families_;
};

}  // namespace telemetry
}  // namespace ltc

#endif  // LTC_TELEMETRY_METRICS_H_

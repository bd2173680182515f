// Metrics: counters, gauges and log-bucketed histograms with labels.
//
// The measurement substrate for the system itself (as opposed to the
// simulated measurements the paper is about). Every subsystem registers
// metrics under `subsystem.name{labels}` in a MetricsRegistry; exporters
// (obs/export.hpp) turn registry snapshots into JSON lines / CSV, and the
// CLI's `stats` command prints them after a run.
//
// Two properties drive the design (see docs/OBSERVABILITY.md):
//   * Injectable global: obs::registry() returns a process-global registry
//     by default; tests and benches swap in their own with set_registry /
//     ScopedRegistry, so concurrent test cases never share counters.
//   * Near-zero cost when off: each metric caches a pointer to its
//     registry's atomic enabled flag; a disabled record operation is one
//     relaxed load and a branch — no locks, no allocation, no clock reads.
//     Registries start disabled; enable with registry().set_enabled(true).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/result.hpp"

namespace debuglet::obs {

/// Metric labels, e.g. {{"as", "3"}, {"intf", "2"}}. Stored sorted by key
/// in canonical form; two label sets with the same pairs are one metric.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Canonical rendering: "{a=1,b=2}" with keys sorted; "" for no labels.
std::string labels_to_string(const Labels& labels);

/// A monotonically increasing count. Increments are lock-free and safe
/// from the chain's batch worker threads (relaxed atomics: totals are
/// exact, but a reader racing a writer may see a slightly stale value —
/// reads happen between batches in practice).
class Counter {
 public:
  Counter() = default;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  void add(std::uint64_t n = 1) {
    if (enabled_ != nullptr && !enabled_->load(std::memory_order_relaxed))
      return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }
  /// Sets the absolute value, ignoring the enabled flag — the snapshot
  /// import path (obs/wire merge_rows); re-imports overwrite, never
  /// double-count.
  void set_total(std::uint64_t v) {
    value_.store(v, std::memory_order_relaxed);
  }

 private:
  const std::atomic<bool>* enabled_ = nullptr;  // null = always on
  std::atomic<std::uint64_t> value_{0};
};

/// A point-in-time value (queue depth, store size, balance). Updates are
/// atomic so worker threads may touch disjoint gauges concurrently; a
/// single gauge written from several threads keeps a correct high-water
/// mark but last-writer-wins on the point value.
class Gauge {
 public:
  Gauge() = default;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  void set(double v) {
    if (enabled_ != nullptr && !enabled_->load(std::memory_order_relaxed))
      return;
    value_.store(v, std::memory_order_relaxed);
    raise_max(v);
  }
  void add(double d) {
    if (enabled_ != nullptr && !enabled_->load(std::memory_order_relaxed))
      return;
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
    raise_max(cur + d);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  /// Largest value ever set (high-water mark; useful for queue depths).
  double max_seen() const {
    return max_seen_.load(std::memory_order_relaxed);
  }
  void reset() {
    value_.store(0.0, std::memory_order_relaxed);
    max_seen_.store(0.0, std::memory_order_relaxed);
  }
  /// Restores value and high-water mark, ignoring the enabled flag (the
  /// snapshot import path).
  void restore(double value, double max_seen) {
    value_.store(value, std::memory_order_relaxed);
    max_seen_.store(max_seen, std::memory_order_relaxed);
  }

 private:
  void raise_max(double v) {
    double seen = max_seen_.load(std::memory_order_relaxed);
    while (v > seen && !max_seen_.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }

  const std::atomic<bool>* enabled_ = nullptr;
  std::atomic<double> value_{0.0};
  std::atomic<double> max_seen_{0.0};
};

/// A log-bucketed histogram over positive values.
//
// Buckets are geometric: kSubBucketsPerDecade per power of ten across
// [10^kMinExponent, 10^kMaxExponent), plus an underflow bucket (values
// <= 0 or below the range) and an overflow bucket. With 32 sub-buckets a
// bucket spans a ratio of 10^(1/32) ≈ 1.075, so interpolated percentiles
// are within a few percent of the exact order statistic (obs_test checks
// this against util/stats' SampleSet). min/max/sum/count are exact.
// Histograms with the same layout (all of them) merge by bucket addition.
class Histogram {
 public:
  static constexpr int kSubBucketsPerDecade = 32;
  static constexpr int kMinExponent = -9;  // 1 ns expressed in seconds, etc.
  static constexpr int kMaxExponent = 12;
  static constexpr std::size_t kInteriorBuckets =
      static_cast<std::size_t>(kMaxExponent - kMinExponent) *
      kSubBucketsPerDecade;
  /// Interior buckets plus underflow (index 0) and overflow (last).
  static constexpr std::size_t kBucketCount = kInteriorBuckets + 2;

  Histogram() = default;
  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  bool enabled() const {
    return enabled_ == nullptr || enabled_->load(std::memory_order_relaxed);
  }

  void record(double v) {
    if (!enabled()) return;
    record_always(v);
  }
  /// Records ignoring the enabled flag (merge targets, bench reports).
  void record_always(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// Interpolated percentile, p in [0, 100]; 0 when empty. Exact at the
  /// extremes (clamped to recorded min/max), within one bucket elsewhere.
  double percentile(double p) const;
  double p50() const { return percentile(50.0); }
  double p90() const { return percentile(90.0); }
  double p99() const { return percentile(99.0); }

  /// Adds another histogram's contents into this one.
  void merge(const Histogram& other);
  void reset();

  /// Replaces this histogram's state from serialized parts (the snapshot
  /// import path, ignoring the enabled flag). `buckets` must have
  /// kBucketCount entries whose sum equals `count`.
  Status restore(const std::vector<std::uint64_t>& buckets,
                 std::uint64_t count, double sum, double min, double max);

  /// The bucket a value lands in (0 = underflow, kBucketCount-1 = overflow).
  static std::size_t bucket_index(double v);
  /// Inclusive lower bound of an interior bucket's value range.
  static double bucket_lower_bound(std::size_t index);
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  const std::atomic<bool>* enabled_ = nullptr;
  // Serializes writers: histograms are the one metric whose update is a
  // read-modify-write over a whole bucket vector, and the chain's batch
  // workers record into shared histograms (contract result latency).
  // The enabled check stays outside the lock, so a disabled histogram
  // still costs one relaxed load. Readers (percentiles, snapshots) run
  // between batches and stay lock-free.
  mutable std::mutex mu_;
  std::vector<std::uint64_t> buckets_ =
      std::vector<std::uint64_t>(kBucketCount, 0);
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One row of a registry snapshot, consumed by the exporters.
struct MetricRow {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Labels labels;
  Kind kind = Kind::kCounter;
  double value = 0.0;  // counter / gauge value (gauge also fills max)
  // Histogram summary (count/sum/min/max also cover gauges' max_seen).
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  /// Histogram rows carry their full bucket vector (kBucketCount entries)
  /// so snapshots merge exactly across hosts (obs/wire); empty otherwise.
  /// Exporters ignore it.
  std::vector<std::uint64_t> hist_buckets;
};

/// Owns metrics, keyed by name + canonical labels. Lookups create on first
/// use and return stable references (metrics never move or disappear while
/// the registry lives); instrumented classes cache the returned pointers at
/// construction so hot paths never touch the maps.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {});

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// All metrics, sorted by name then labels. Histogram rows carry
  /// interpolated percentiles; the raw buckets stay inside the registry.
  std::vector<MetricRow> snapshot() const;

  /// Zeroes every metric (keeps registrations and the enabled state).
  void reset_values();

  std::size_t size() const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<T> metric;
  };
  template <typename T>
  T& lookup(std::map<std::string, Entry<T>>& map, const std::string& name,
            const Labels& labels);

  std::atomic<bool> enabled_{false};
  // Guards the three maps, so lookups are safe from the chain's batch
  // worker threads.
  // Returned metric references stay stable — entries are unique_ptrs and
  // never erased — so cached pointers remain lock-free.
  mutable std::mutex mu_;
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
};

/// The active registry: a process-global instance unless one was injected.
MetricsRegistry& registry();

/// Injects a registry (tests, bench reports); null restores the built-in
/// global. The injected registry must outlive every object instrumented
/// while it was active. Returns the previously active registry.
MetricsRegistry* set_registry(MetricsRegistry* r);

/// Enables/disables the ACTIVE registry — the one-line switch examples and
/// tools flip before building a world.
void set_enabled(bool on);

/// RAII: installs a fresh enabled registry for one scope (test isolation).
class ScopedRegistry {
 public:
  ScopedRegistry() : previous_(set_registry(&registry_)) {
    registry_.set_enabled(true);
  }
  ~ScopedRegistry() { set_registry(previous_); }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

  MetricsRegistry& get() { return registry_; }

 private:
  MetricsRegistry registry_;
  MetricsRegistry* previous_;
};

}  // namespace debuglet::obs

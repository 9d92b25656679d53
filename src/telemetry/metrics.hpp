#pragma once

/// \file metrics.hpp
/// \brief Named-metric registry: lock-free counters, gauges, and fixed-bucket
/// latency histograms with percentile readout.
///
/// This is the instrumentation layer behind the paper's observability claims
/// (the 1.25 ms sensor-update latency and the Table-I CPU-load column): hot
/// paths record into pre-resolved `Histogram*` / `Counter*` handles with
/// relaxed atomics only — no locks, no allocation, no string hashing — while
/// readers take consistent-enough snapshots for tables.
/// Components accept a nullable `MetricsRegistry*`; a null registry
/// short-circuits every record call to a predictable branch.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace srl::telemetry {

/// Monotonic event counter (queries served, resamples triggered, ...).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value-wins instantaneous metric (ESS, cloud size, entropy, ...).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramOptions {
  /// Geometric bucket grid: `buckets_per_decade` log-spaced buckets per
  /// factor of 10 between `min_value` and `max_value`. Values below/above
  /// clamp into the first/last bucket (exact min/max are tracked separately).
  /// Defaults cover 100 ns .. 10 s when recording milliseconds.
  double min_value = 1e-4;
  double max_value = 1e4;
  int buckets_per_decade = 24;
};

/// Fixed-bucket latency histogram. `record` is wait-free (one relaxed
/// fetch_add per bucket plus CAS min/max); percentile readout interpolates
/// geometrically inside the hit bucket, so its relative error is bounded by
/// the bucket width (~10%/decade at the default 24 buckets per decade).
class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});

  void record(double value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  double min() const;  ///< exact observed minimum (0 when empty)
  double max() const;  ///< exact observed maximum (0 when empty)

  /// q in [0, 1]; returns 0 when empty. Result is clamped to [min, max].
  double percentile(double q) const;

  struct Snapshot {
    std::uint64_t count{0};
    double sum{0.0};
    double mean{0.0};
    double min{0.0};
    double max{0.0};
    double p50{0.0};
    double p90{0.0};
    double p95{0.0};
    double p99{0.0};
  };
  Snapshot snapshot() const;

  void reset();

  int bucket_count() const { return static_cast<int>(counts_.size()); }
  /// Exposed for tests: which bucket a value lands in.
  int bucket_index(double value) const;
  /// Lower edge of bucket `i` (bucket 0 starts at 0).
  double bucket_lower(int i) const;
  double bucket_upper(int i) const;

 private:
  HistogramOptions options_;
  double log_min_;
  double inv_log_step_;
  double log_step_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Owner and name-resolver for all metrics of one run. Creation (first
/// access by name) takes a mutex; returned references stay valid for the
/// registry's lifetime, so hot paths resolve once and record through the
/// handle. All three families share one namespace per kind.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, HistogramOptions options = {});

  /// Lookup without creation; nullptr when the name was never registered.
  const Histogram* find_histogram(const std::string& name) const;
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;

  /// One row per metric, sorted by (kind, name). Counter rows fill `count`,
  /// gauge rows fill `value`, histogram rows fill everything.
  struct Row {
    std::string name;
    std::string kind;  ///< "counter" | "gauge" | "histogram"
    std::uint64_t count{0};
    double value{0.0};  ///< counter value / gauge value / histogram mean
    Histogram::Snapshot hist{};
  };
  std::vector<Row> rows() const;

  /// Histogram names in registration-independent (sorted) order.
  std::vector<std::string> histogram_names() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace srl::telemetry

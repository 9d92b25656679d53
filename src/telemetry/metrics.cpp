#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace srl::telemetry {

namespace {

/// CAS-min/max for atomic doubles (C++20 atomic<double> has no fetch_min).
void atomic_min(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (value < cur &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (value > cur &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(HistogramOptions options)
    : options_{options},
      min_{std::numeric_limits<double>::infinity()},
      max_{-std::numeric_limits<double>::infinity()} {
  options_.min_value = std::max(options_.min_value, 1e-12);
  options_.max_value = std::max(options_.max_value, options_.min_value * 10.0);
  options_.buckets_per_decade = std::max(options_.buckets_per_decade, 1);
  log_min_ = std::log10(options_.min_value);
  log_step_ = 1.0 / static_cast<double>(options_.buckets_per_decade);
  inv_log_step_ = static_cast<double>(options_.buckets_per_decade);
  const double decades = std::log10(options_.max_value) - log_min_;
  // Bucket 0 is the underflow bucket [0, min_value); the last bucket holds
  // everything >= max_value.
  const int geometric =
      static_cast<int>(std::ceil(decades * inv_log_step_ - 1e-9));
  counts_ = std::vector<std::atomic<std::uint64_t>>(
      static_cast<std::size_t>(geometric + 2));
}

int Histogram::bucket_index(double value) const {
  if (!(value >= options_.min_value)) return 0;  // also catches NaN
  const int idx =
      1 + static_cast<int>((std::log10(value) - log_min_) * inv_log_step_);
  return std::min(idx, static_cast<int>(counts_.size()) - 1);
}

double Histogram::bucket_lower(int i) const {
  if (i <= 0) return 0.0;
  return std::pow(10.0, log_min_ + static_cast<double>(i - 1) * log_step_);
}

double Histogram::bucket_upper(int i) const {
  if (i < 0) return 0.0;
  if (i + 1 >= static_cast<int>(counts_.size())) {
    const double hi = max_.load(std::memory_order_relaxed);
    return std::isfinite(hi) ? std::max(hi, options_.max_value)
                             : options_.max_value;
  }
  return std::pow(10.0, log_min_ + static_cast<double>(i) * log_step_);
}

void Histogram::record(double value) {
  if (!std::isfinite(value)) return;
  value = std::max(value, 0.0);
  counts_[static_cast<std::size_t>(bucket_index(value))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  atomic_min(min_, value);
  atomic_max(max_, value);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::min() const {
  const double v = min_.load(std::memory_order_relaxed);
  return std::isfinite(v) ? v : 0.0;
}

double Histogram::max() const {
  const double v = max_.load(std::memory_order_relaxed);
  return std::isfinite(v) ? v : 0.0;
}

double Histogram::percentile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th order statistic (1-based, nearest-rank with ceil).
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n))));
  std::uint64_t seen = 0;
  for (int i = 0; i < static_cast<int>(counts_.size()); ++i) {
    const std::uint64_t c =
        counts_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (seen + c >= rank) {
      // Geometric interpolation inside the bucket by the fraction of the
      // bucket's own population below the target rank.
      const double frac = (static_cast<double>(rank - seen) - 0.5) /
                          static_cast<double>(c);
      const double lo = std::max(bucket_lower(i), 1e-12);
      const double hi = std::max(bucket_upper(i), lo);
      const double value = lo * std::pow(hi / lo, std::clamp(frac, 0.0, 1.0));
      return std::clamp(value, min(), max());
    }
    seen += c;
  }
  return max();
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.count = count();
  s.sum = sum();
  s.mean = mean();
  s.min = min();
  s.max = max();
  s.p50 = percentile(0.50);
  s.p90 = percentile(0.90);
  s.p95 = percentile(0.95);
  s.p99 = percentile(0.99);
  return s;
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock{mutex_};
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock{mutex_};
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      HistogramOptions options) {
  std::lock_guard lock{mutex_};
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(options);
  return *slot;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  std::lock_guard lock{mutex_};
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.get() : nullptr;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  std::lock_guard lock{mutex_};
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second.get() : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  std::lock_guard lock{mutex_};
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second.get() : nullptr;
}

std::vector<MetricsRegistry::Row> MetricsRegistry::rows() const {
  std::lock_guard lock{mutex_};
  std::vector<Row> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    Row row;
    row.name = name;
    row.kind = "counter";
    row.count = c->value();
    row.value = static_cast<double>(c->value());
    out.push_back(std::move(row));
  }
  for (const auto& [name, g] : gauges_) {
    Row row;
    row.name = name;
    row.kind = "gauge";
    row.value = g->value();
    out.push_back(std::move(row));
  }
  for (const auto& [name, h] : histograms_) {
    Row row;
    row.name = name;
    row.kind = "histogram";
    row.hist = h->snapshot();
    row.count = row.hist.count;
    row.value = row.hist.mean;
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<std::string> MetricsRegistry::histogram_names() const {
  std::lock_guard lock{mutex_};
  std::vector<std::string> names;
  names.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) names.push_back(name);
  return names;
}

}  // namespace srl::telemetry

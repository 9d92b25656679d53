#pragma once

/// \file timer.hpp
/// \brief Wall-clock timing helpers used for the latency measurements
/// (the paper's 1.25 ms sensor-update claim and the CPU-load column).

#include <chrono>

namespace srl {

/// Monotonic stopwatch. `elapsed_*` reads without stopping.
class Stopwatch {
 public:
  using Clock = std::chrono::steady_clock;

  Stopwatch() : start_{Clock::now()} {}

  void restart() { start_ = Clock::now(); }

  double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double elapsed_ms() const { return elapsed_s() * 1e3; }

 private:
  Clock::time_point start_;
};

/// Accumulates total busy time over repeated timed sections; the ratio of
/// busy time to wall time is the compute-load proxy reported in Table I.
///
/// Deliberately minimal: only the aggregate busy-time bookkeeping behind the
/// CPU-load column and the per-section mean live here. Per-section latency
/// *distributions* (min/max/percentiles) belong to `telemetry::Histogram`
/// (src/telemetry/metrics.hpp), which all instrumented code now uses.
class LoadAccumulator {
 public:
  /// Record one timed section of `seconds` busy time.
  void add_busy(double seconds) {
    busy_s_ += seconds;
    ++sections_;
  }

  double busy_s() const { return busy_s_; }
  long sections() const { return sections_; }
  /// Mean busy time per section in milliseconds.
  double mean_ms() const {
    return sections_ > 0 ? busy_s_ * 1e3 / static_cast<double>(sections_) : 0.0;
  }
  /// Busy fraction of `wall_s` as a CPU-core percentage (htop-style).
  double load_percent(double wall_s) const {
    return wall_s > 0.0 ? 100.0 * busy_s_ / wall_s : 0.0;
  }

 private:
  double busy_s_{0.0};
  long sections_{0};
};

}  // namespace srl

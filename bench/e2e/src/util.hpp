#pragma once

/// \file util.hpp
/// \brief Exact percentiles, FNV-1a fingerprints and process accounting.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "eval/experiment.hpp"

namespace e2e {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (every thread).
inline double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

/// High-water resident set of the process so far, MB (Linux reports KiB).
inline double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

/// Nearest-rank percentiles of raw samples: the q-quantile is the sample
/// of rank ceil(q * n) in sorted order, never an interpolated or bucketed
/// value. `beyond_p99` counts the samples ranked after the p99 sample; the
/// p99 is only meaningful when that count is at least 10.
struct Percentiles {
  std::size_t n{0};
  double p50{0.0};
  double p99{0.0};
  std::size_t beyond_p99{0};
};

inline std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

template <typename T>
Percentiles percentiles(std::vector<T> samples) {
  Percentiles p;
  p.n = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.p50 = static_cast<double>(samples[nearest_rank(p.n, 0.50) - 1]);
  const std::size_t r99 = nearest_rank(p.n, 0.99);
  p.p99 = static_cast<double>(samples[r99 - 1]);
  p.beyond_p99 = p.n - r99;
  return p;
}

/// 64-bit FNV-1a over the exact bits of the values fed in. Equal
/// fingerprints mean the estimates did not change by a single bit.
class Fnv {
 public:
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  void add(const srl::Pose2& p) {
    add(p.x);
    add(p.y);
    add(p.theta);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

/// Every deterministic field of a closed-loop result (timing fields are
/// excluded), in declaration order.
inline void hash_result(Fnv& f, const srl::ExperimentResult& r) {
  f.add_u64(r.lap_times.size());
  for (const double v : r.lap_times) f.add(v);
  for (const double v : r.lap_lateral_mean_cm) f.add(v);
  for (const double v :
       {r.lap_time_mean, r.lap_time_std, r.lateral_mean_cm, r.lateral_std_cm,
        r.scan_alignment, r.pose_rmse_m, r.pose_lat_rmse_m,
        r.pose_long_rmse_m, r.heading_rmse_rad, r.mean_abs_slip,
        r.odom_drift_m_per_lap, r.sim_time, r.time_to_relocalize_mean_s,
        r.time_to_relocalize_max_s, r.post_divergence_lateral_cm,
        r.post_recovery_lateral_cm, r.final_pose_error_m}) {
    f.add(v);
  }
  for (const double v : r.time_to_relocalize_s) f.add(v);
  f.add_u64((r.crashed ? 1U : 0U) | (r.completed ? 2U : 0U) |
            (r.recovered ? 4U : 0U));
  f.add_u64(static_cast<std::uint64_t>(r.kidnaps_applied));
  f.add_u64(static_cast<std::uint64_t>(r.divergence_episodes));
  f.add_u64(static_cast<std::uint64_t>(r.recoveries));
}

inline std::uint64_t result_fingerprint(const srl::ExperimentResult& r) {
  Fnv f;
  hash_result(f, r);
  return f.value();
}

inline bool finite_result(const srl::ExperimentResult& r) {
  for (const double v : {r.lateral_mean_cm, r.scan_alignment, r.pose_rmse_m,
                         r.final_pose_error_m, r.sim_time}) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace e2e

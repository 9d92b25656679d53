#pragma once

/// \file cddt.hpp
/// \brief Compressed Directional Distance Transform (Walsh & Karaman, ICRA
/// 2018) — the core rangelibc data structure.
///
/// The angle space is discretized into M bins over [0, pi) (a ray at theta
/// and theta + pi travel the same line in opposite directions). For each bin
/// the map is conceptually rotated so rays run along +u; blocking cells are
/// projected to (u, v) and bucketed into bands of width one cell along v.
/// Each band keeps a sorted, deduplicated ("compressed") list of obstacle u
/// coordinates, so a query is: locate band from v, binary-search the first
/// obstacle ahead of u. Query cost is O(log band size); the approximation
/// error is bounded by the angular bin width and the band discretization.
/// All bands share one flat array: a vector per band costs more in headers
/// than its obstacles take, and the batch jobs hold one table per lane.

#include <span>
#include <vector>

#include "range/range_method.hpp"

namespace srl {

class Cddt final : public RangeMethod {
 public:
  Cddt(std::shared_ptr<const OccupancyGrid> map, double max_range,
       int theta_bins = 108);

  float range(const Pose2& ray) const override;
  std::string name() const override { return "cddt"; }

  /// Per-particle batch: hoists the shared grid lookup / occupancy test
  /// out of the beam loop; per-beam results are bit-identical to range().
  void ranges_from(const Pose2& sensor, std::span<const double> beam_angles,
                   std::span<float> out) const override;

  int theta_bins() const { return static_cast<int>(bins_.size()); }
  /// Total stored obstacle projections (memory diagnostic).
  std::size_t total_entries() const;

 private:
  struct ThetaBin {
    double cos_t;
    double sin_t;
    double angle;  ///< bin axis angle kPi * b / m
    double v_min;  ///< band-0 offset along v
    /// Band k's sorted obstacle u are obstacles_[band_start[k],
    /// band_start[k + 1]); one entry more than the bin has bands.
    std::vector<std::size_t> band_start;
  };

  /// range() after the shared precondition / occupancy checks: bin
  /// selection, direction test, band search for the ray (x, y, theta).
  float range_line(double x, double y, double theta) const;

  std::vector<ThetaBin> bins_;
  std::vector<float> obstacles_;  ///< every bin's bands, back to back
  double band_width_;
};

}  // namespace srl
